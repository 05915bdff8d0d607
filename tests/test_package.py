"""The package's public name list and its module layering."""

import ast
import re
import sys
import types
from pathlib import Path

import eqtransfer as et

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
    assert len(et.__all__) <= 71, len(et.__all__)


def test_source_line_ceiling():
    """The source may not grow unnoticed either: ``wc -l
    src/eqtransfer/*.py`` stays at most this bound, and a change that grows
    it raises the bound and says so in CHANGES.md."""
    lines = sum(len(path.read_bytes().splitlines())
                for path in SRC.glob("*.py"))
    assert lines <= 3215, lines


def test_corpus_games_only_through_build():
    """The corpus's games and claim data are reached through
    ``build(name, n)``, not through per-entry names."""
    prefixes = ("prop_", "remark_", "unit_vector_", "PROP_")
    assert not [name for name in et.__all__ if name.startswith(prefixes)]


def test_transfer_imports_no_game_model():
    """The transfer runs over an arbitrary game structure: its module
    imports the standard library, the errors and the preferences, and no
    game model, so every backend lives with its own model."""
    tree = ast.parse((SRC / "transfer.py").read_text())
    local, external = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            local.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            external.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            external.update(a.name.split(".")[0] for a in node.names)
    assert local <= {"errors", "prefs"}, local
    assert external <= sys.stdlib_module_names, external


def test_workflow_has_no_heredoc():
    """CI's inputs are rows of ``tests/limits.py``, which tier-1 runs
    too, not scripts inlined in the workflow."""
    assert not re.search(r"<<-?\s*['\"]?\w+", WORKFLOW.read_text())
