"""The package's public name list and its module layering."""

import ast
import re
import sys
import types
from pathlib import Path

import pytest

import eqtransfer as et
from eqtransfer import normal_form, prefs

SRC = Path(et.__file__).resolve().parent
WORKFLOW = (Path(__file__).resolve().parent.parent
            / ".github" / "workflows" / "tests.yml")


def test_public_names_are_library_objects():
    assert et.__all__
    for name in et.__all__:
        assert not isinstance(getattr(et, name), types.ModuleType), name


def test_public_name_ceiling():
    """The public API may not grow unnoticed: a change that adds names
    raises this bound and says so in CHANGES.md."""
    assert len(et.__all__) <= 64, len(et.__all__)


LEMMA_CONSTRUCTIONS = {
    prefs: ("lift_less", "lift_less_existential", "upward_cone"),
    normal_form: ("enforceable_finite_cone", "eliminate_dominated_outcomes",
                  "minimax_transfer", "finite_height_reduce"),
}


def test_lemma_constructions_are_private():
    """The paper's lemma constructions are checked by the tests through
    their private names and are not part of the public API."""
    for module, names in LEMMA_CONSTRUCTIONS.items():
        for name in names:
            assert name not in et.__all__, name
            assert not hasattr(et, name), name
            assert not hasattr(module, name), name
            assert callable(getattr(module, "_" + name)), name


def test_source_line_ceiling():
    """The source may not grow unnoticed either: ``wc -l
    src/eqtransfer/*.py`` stays at most this bound, and a change that grows
    it raises the bound and says so in CHANGES.md."""
    lines = sum(len(path.read_bytes().splitlines())
                for path in SRC.glob("*.py"))
    assert lines <= 3214, lines


def test_corpus_games_only_through_build():
    """The corpus's games and claim data are reached through
    ``build(name, n)``, not through per-entry names."""
    prefixes = ("prop_", "remark_", "unit_vector_", "PROP_")
    assert not [name for name in et.__all__ if name.startswith(prefixes)]


def _imports(module: str) -> tuple[set[str], set[str]]:
    """The package modules and the outside top-level modules that a
    module's import statements name."""
    local, external = set(), set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            local.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            external.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            external.update(a.name.split(".")[0] for a in node.names)
    return local, external


def test_transfer_imports_no_game_model():
    """The transfer runs over an arbitrary game structure: its module
    imports the standard library, the errors and the preferences, and no
    game model, so every backend lives with its own model."""
    local, external = _imports("transfer")
    assert local <= {"errors", "prefs"}, local
    assert external <= sys.stdlib_module_names, external


@pytest.mark.parametrize("module", ["prefs", "transfer", "graph_games"])
def test_module_imports_no_numpy(module):
    """The preferences, the transfer and the graph games run without
    numpy: neither they nor the package modules they import import it."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        seen.add(name)
        local, external = _imports(name)
        assert "numpy" not in external, name
        todo.extend(local - seen)


def test_workflow_has_no_heredoc():
    """CI's inputs are rows of ``tests/limits.py``, which tier-1 runs
    too, not scripts inlined in the workflow."""
    assert not re.search(r"<<-?\s*['\"]?\w+", WORKFLOW.read_text())
