"""The package's public name list and its module layering."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import eqtransfer as et
from eqtransfer import cli, normal_form, prefs
from conftest import fixture_path

SRC = Path(et.__file__).resolve().parent
WORKFLOW = (Path(__file__).resolve().parent.parent
            / ".github" / "workflows" / "tests.yml")


def test_public_names_are_library_objects():
    assert et.__all__
    for name in et.__all__:
        assert not isinstance(getattr(et, name), types.ModuleType), name


def test_public_names_are_listed_once():
    """``__all__`` is a list of 64 names, each written once in the table
    of the modules the package reads its names from."""
    listed = [name for names in et._NAMES.values() for name in names]
    assert type(et.__all__) is list and len(et.__all__) == 64
    assert sorted(listed) == et.__all__


@pytest.mark.parametrize("module", sorted(et._NAMES))
def test_public_names_resolve_to_their_module(monkeypatch, module):
    """Each name is its module's object; a module of the table is found
    even where no import has set it on the package yet."""
    home = importlib.import_module(f"eqtransfer.{module}")
    monkeypatch.delitem(vars(et), module)
    assert getattr(et, module) is home
    for name in et._NAMES[module]:
        assert getattr(et, name) is getattr(home, name), name


def test_public_name_is_resolved_once(monkeypatch):
    """The first read goes through the module ``__getattr__`` and keeps
    the name in the package's globals; the second is a plain lookup."""
    calls, resolve = [], et.__getattr__
    monkeypatch.delitem(vars(et), "solve_parity", raising=False)
    monkeypatch.setattr(et, "__getattr__",
                        lambda name: calls.append(name) or resolve(name))
    first = et.solve_parity
    assert et.solve_parity is first and calls == ["solve_parity"]


def test_unknown_name_and_listing(monkeypatch):
    """An unknown name raises the standard error; ``dir`` lists every
    public name, read or not, and ``import *`` binds each."""
    with pytest.raises(AttributeError) as info:
        et.no_such_name
    assert str(info.value) == "module 'eqtransfer' has no attribute 'no_such_name'"
    monkeypatch.delitem(vars(et), "solve_parity", raising=False)
    assert set(et.__all__) <= set(dir(et))
    namespace = {}
    exec("from eqtransfer import *", namespace)
    assert all(namespace[name] is getattr(et, name) for name in et.__all__)


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
    assert lines <= 3373, lines


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


# Each line of the child's output: the command, its exit code, its
# standard output, and whether numpy is loaded after it.
_FRESH = """\
import contextlib, io, json, sys
import eqtransfer, eqtransfer.jsonio
from eqtransfer import cli
print(json.dumps(["import", 0, "", "numpy" in sys.modules]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    print(json.dumps([argv, code, out.getvalue(), "numpy" in sys.modules]))
"""


def fresh_runs(*argvs: list[str]) -> list[list]:
    """``cli.main`` on each command in turn, in one fresh interpreter that
    first imports the package and ``jsonio``."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _FRESH, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [json.loads(line) for line in proc.stdout.splitlines()]


def in_process(capsys, argv: list[str]) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


NUMPY_FREE = [
    ["transfer", fixture_path("priority_game.json")],
    ["transfer", fixture_path("muller_game.json")],
    ["transfer", fixture_path("intro_payoff_tree.json")],
    ["--json", "transfer", fixture_path("intro_payoff_tree.json")],
    ["solve-parity", fixture_path("arena_small.json")],
    ["solve-muller", fixture_path("arena_small.json")],
    # a tree: decided by backward induction, with no normal form
    ["check-determinacy", fixture_path("intro_structure.json")],
    # a tree profile: checked on the tree, with no normal form
    ["verify-ne", "--profile", "0,3", fixture_path("intro_winlose_tree.json")],
]


def test_arena_and_tree_commands_load_no_numpy(capsys):
    """Importing the package and ``jsonio`` loads no numpy, nor does any
    arena or tree command after it; each prints what it prints here."""
    runs = fresh_runs(*NUMPY_FREE)
    assert runs[0] == ["import", 0, "", False]
    for argv, run in zip(NUMPY_FREE, runs[1:]):
        assert run == [argv, *in_process(capsys, argv), False]


def test_normal_form_command_loads_numpy(capsys):
    argv = ["check-determinacy", fixture_path("xz_yy.json")]
    assert fresh_runs(argv)[1] == [argv, 0, "determined\n", True]
    assert in_process(capsys, argv) == (0, "determined\n")
