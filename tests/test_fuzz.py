"""Seeded fuzzing of the command line: on no mutated fixture does
``cli.main`` raise, or exit with a code other than 0, 1 or 2; it maps
every ``EqTransferError`` to exit 1 or 2, and nothing else may escape.

All mutations run in one child process, this file run as a script, under a
2 GB address-space limit and an alarm per mutation, so that an unbounded
allocation or a hang fails the test rather than the host.
"""

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

SEED = 20261019
MUTATIONS = 5000
MEMORY_LIMIT = 2 << 30  # bytes of address space in the child
MUTATION_ALARM_S = 10  # all runs of one mutation
BUDGET_S = 120  # the whole child

# What a mutated value is swapped for: every JSON type, and the integers
# at the edges of the ranges the loaders check.
VALUES = (None, True, False, 0, -1, 10 ** 30, 1.5, "x", [], [0], [[0]],
          {}, {"x": 0})
COMMANDS = {"solve": [], "check-determinacy": [], "transfer": [],
            "solve-parity": [], "solve-muller": [],
            "verify-ne": ["--profile", "0,0"]}


def matching_commands(doc: dict) -> list[str]:
    """The subcommands that take the fixture's kind of document."""
    if "vertices" not in doc:
        return ["solve", "check-determinacy", "transfer", "verify-ne"]
    return ["transfer"] if "kind" in doc else ["solve-parity", "solve-muller"]


def slots(doc) -> list[tuple]:
    """Every (container, key) pair of the document, the top level's
    included."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            found.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return found


def mutate(doc: dict, rng: random.Random) -> dict:
    """A copy of the document with one or two values swapped for one of
    VALUES, or their keys deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        places = slots(doc)
        if not places:
            break
        node, key = rng.choice(places)
        if isinstance(node, dict) and rng.random() < 0.25:
            del node[key]
        else:
            node[key] = copy.deepcopy(rng.choice(VALUES))
    return doc


class Hang(BaseException):
    """A mutation's runs outlasted their alarm; a BaseException, so that no
    ``except Exception`` in the code under test swallows it."""


def fuzz(seed: int, count: int) -> dict:
    """Run ``count`` mutations, cycling through the fixtures, each on the
    subcommands matching its fixture plus one random subcommand, with
    ``--json`` at random.  Returns exit-code counts and the escapes."""
    import signal

    from eqtransfer import cli

    def alarm(signum, frame):
        raise Hang(f"no exit within {MUTATION_ALARM_S} s")

    signal.signal(signal.SIGALRM, alarm)
    rng = random.Random(seed)
    docs = {p.name: json.loads(p.read_text())
            for p in sorted(FIXTURES.glob("*.json"))}
    names = sorted(docs)
    codes: Counter = Counter()
    escapes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        for i in range(count):
            name = names[i % len(names)]
            doc = mutate(docs[name], rng)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            commands = matching_commands(docs[name]) + [rng.choice(
                sorted(COMMANDS))]
            signal.setitimer(signal.ITIMER_REAL, MUTATION_ALARM_S)
            try:
                for command in commands:
                    argv = (["--json"] if rng.random() < 0.5 else []) + [
                        command, path, *COMMANDS[command]]
                    try:
                        with contextlib.redirect_stdout(io.StringIO()), \
                                contextlib.redirect_stderr(io.StringIO()):
                            code = cli.main(argv)
                    except (Exception, Hang) as exc:
                        code = "escape"
                        escapes.append({"fixture": name, "argv": argv,
                                        "doc": doc, "error": repr(exc)})
                    codes[str(code)] += 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    return {"mutations": count, "codes": dict(codes),
            "escapes": escapes[:5], "escape_count": len(escapes)}


def test_mutated_fixtures_exit_cleanly():
    """At least 5,000 seeded mutations of the fixtures, 0 escapes: every
    run ends in exit 0, 1 or 2, and no exception leaves ``cli.main``."""
    path = [str(ROOT / "src")] + [p for p in os.environ.get(
        "PYTHONPATH", "").split(os.pathsep) if p]
    # OpenBLAS reserves address space per thread; one keeps the child's
    # numpy import well inside the limit on hosts with many cores
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, __file__, str(SEED), str(MUTATIONS)],
        capture_output=True, text=True, timeout=BUDGET_S, env=env)
    assert proc.returncode == 0, proc.stderr[-4000:]
    report = json.loads(proc.stdout)
    assert report["mutations"] >= 5000
    assert report["escape_count"] == 0, report["escapes"]
    assert set(report["codes"]) <= {"0", "1", "2"}, report["codes"]
    # the mutations reach the solvers, not only the loaders
    assert report["codes"].keys() >= {"0", "2"}, report["codes"]


if __name__ == "__main__":
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    print(json.dumps(fuzz(int(sys.argv[1]), int(sys.argv[2]))))
