"""Work-or-refuse limits: inputs far beyond desk scale, one row each.

A row is one ``eqtransfer`` command on a generated input or a fixture,
with the exit code it must give: 0 where the input works, 1 where it
works and the answer is no, 2 where a documented cap refuses it with ``TooLargeError`` or the input is bad.  No
row may print a traceback.  ``tests/test_limits.py`` runs every row
in-process through ``cli.main`` as part of tier-1.  Run as a script, this
module runs every row at full size through the installed console script,
each under a ``TIMEOUT`` of 60 s::

    python -m pip install -e .
    python tests/limits.py
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

import eqtransfer as et
from eqtransfer import corpus, errors, jsonio
from conftest import fixture_path
from reference_graph import shuffled_chain_arena


def caterpillar_text(depth: int) -> str:
    """A nested tree game whose spine of ``depth`` nodes nests twice as
    deep in JSON; built as text, since jsonio writes trees flat."""
    tree = '{"leaf": 0}'
    for d in range(depth):
        tree = (f'{{"owner": "{"ab"[d % 2]}", '
                f'"children": [{{"leaf": {1 + d % 2}}}, {tree}]}}')
    prefs = ('[{"pairs": [[0, 1], [1, 2], [0, 2]]}, '
             '{"pairs": [[2, 0], [0, 1], [2, 1]]}]')
    return (f'{{"format": 1, "outcomes": 3, "tree": {tree}, '
            f'"preferences": {prefs}}}')


def caterpillar_game(depth: int) -> tuple[et.GameTree, et.PreferenceProfile]:
    """``caterpillar_text``'s game as ``GameTree`` arrays: node i, at
    level d = depth - 1 - i, has leaf 1 + d % 2 and then node i + 1, or
    leaf 0 at level 0."""
    levels = range(depth - 1, -1, -1)
    tree = et.GameTree([1 + d % 2 for d in levels],
                       [[~(1 + d % 2), i + 1 if d else ~0]
                        for i, d in enumerate(levels)], 0, et.OutcomeSet(3))
    return tree, jsonio.loads(caterpillar_text(0))[1]


def wide_caterpillar(spine: int) -> dict:
    """``spine`` binary player-a nodes over one binary player-b node, two
    outcomes: 2**spine * 2 strategy profiles."""
    tree = {"owner": "b", "children": [{"leaf": 0}, {"leaf": 1}]}
    for d in range(spine):
        tree = {"owner": "a", "children": [{"leaf": d % 2}, tree]}
    return {"format": 1, "outcomes": 2, "tree": tree,
            "preferences": [{"pairs": [[0, 1]]}, {"pairs": [[1, 0]]}]}


def colour_ring(n: int) -> dict:
    """A plain arena of n vertices on a ring with chords, vertex u coloured
    u, which player 2 wins from 0 under ``win_sets`` [[0]]."""
    return {"format": 1, "vertices": n, "owned": list(range(0, n, 2)),
            "edges": [[u, (u + d) % n] for u in range(n) for d in (1, 2)],
            "colors": list(range(n)), "start": 0, "win_sets": [[0]]}


def chain_arena(n: int) -> et.Arena:
    """A cycle plus self-loops with sorted colours 0..n-1: Zielonka peels
    one colour per level, so the solver goes n levels deep."""
    edges = [(u, (u + 1) % n) for u in range(n)] + [(u, u) for u in range(n)]
    return et.Arena(n, range(0, n, 2), edges, range(n))


def plain_arena(arena: et.Arena) -> dict:
    """The arena as a document for ``solve-parity``, started at vertex 0."""
    return jsonio.to_obj((arena, 0, None))


def muller_docs(v: int) -> dict[str, dict]:
    """A random Muller game on ``v`` vertices over 10 colours and 5
    outcomes, seeded by ``v``, with opposed linear preferences, and its
    arena with the colour sets of even outcomes as ``win_sets``."""
    rng = random.Random(v)
    n_colors, n_out = 10, 5
    order = list(range(v))
    rng.shuffle(order)
    succ = [set() for _ in range(v)]
    for i in range(v):
        succ[order[i]].add(order[(i + 1) % v])
    for u in range(v):
        succ[u].update(rng.sample(range(v), rng.randint(0, 2)))
    colors = [u % n_colors for u in range(v)]
    rng.shuffle(colors)
    ranking = list(range(n_out))
    rng.shuffle(ranking)
    pairs = [[ranking[i], ranking[j]]
             for i in range(n_out) for j in range(i + 1, n_out)]
    arena = {"format": 1, "vertices": v,
             "owned": [u for u in range(v) if rng.random() < 0.5],
             "edges": [[u, w] for u in range(v) for w in sorted(succ[u])],
             "colors": colors, "start": 0}
    r = [[list(c), rng.randrange(n_out)] for k in range(1, n_colors + 1)
         for c in itertools.combinations(range(n_colors), k)]
    return {"game": {**arena, "kind": "muller", "outcomes": n_out, "r": r,
                     "preferences": [{"pairs": pairs},
                                     {"pairs": [p[::-1] for p in pairs]}]},
            "arena": {**arena, "win_sets": [c for c, o in r if o % 2 == 0]}}


def priority_game(v: int) -> dict:
    """A random priority game on ``v`` vertices, seeded by ``v``: a
    shuffled cycle plus up to two random edges a vertex, 16 colours mapped
    to 8 outcomes, and opposed linear preferences."""
    rng = random.Random(v)
    n_colors, n_out = 16, 8
    order = list(range(v))
    rng.shuffle(order)
    cycle = [0] * v  # each vertex's successor on the shuffled cycle
    for u, w in zip(order, order[1:] + order[:1]):
        cycle[u] = w
    edges = []  # a vertex at a time: keeping a set a vertex took seconds
    for u, w in enumerate(cycle):
        edges += [[u, x] for x in sorted(
            {w, *rng.sample(range(v), rng.randint(0, 2))})]
    ranking = list(range(n_out))
    rng.shuffle(ranking)
    pairs = [[ranking[i], ranking[j]]
             for i in range(n_out) for j in range(i + 1, n_out)]
    return {"format": 1, "vertices": v,
            "owned": [u for u in range(v) if rng.random() < 0.5],
            "edges": edges,
            "colors": [rng.randrange(n_colors) for _ in range(v)],
            "start": 0, "kind": "priority", "outcomes": n_out,
            "r": [[c, rng.randrange(n_out)] for c in range(n_colors)],
            "preferences": [{"pairs": pairs},
                            {"pairs": [p[::-1] for p in pairs]}]}


def star_game(k: int) -> dict:
    """A priority game on a star: player 1's centre has ``k`` successors,
    each leading back to it, with two outcomes and opposed preferences."""
    return {"format": 1, "vertices": k + 1, "owned": [0],
            "edges": [[0, w] for w in range(1, k + 1)]
                     + [[w, 0] for w in range(1, k + 1)],
            "colors": [w % 4 for w in range(k + 1)], "start": 0,
            "kind": "priority", "outcomes": 2,
            "r": [[c, c % 2] for c in range(4)],
            "preferences": [{"pairs": [[0, 1]]}, {"pairs": [[1, 0]]}]}


def wide_normal_form(n: int) -> dict:
    """n rows, row o reaching only outcome o, against two columns that
    reach all n outcomes, with opposed chain preferences: at n = 4,096
    every column outcome mask is 4,096 bits wide."""
    chain = [[o, o + 1] for o in range(n - 1)]
    return {"format": 1, "strategies": [n, 2], "outcomes": n,
            "v": [o for o in range(n) for _ in range(2)],
            "preferences": [{"pairs": chain},
                            {"pairs": [p[::-1] for p in chain]}]}


def transversal_pairs(k: int) -> dict:
    """2^k rows against k columns over 2k outcomes, column j reaching the
    pair {2j, 2j + 1} and row r the outcome 2j + bit j of r there: the
    rows are every transversal of the pairs, so it is determined."""
    return {"format": 1, "strategies": [1 << k, k], "outcomes": 2 * k,
            "v": [2 * j + (r >> j & 1) for r in range(1 << k)
                  for j in range(k)]}


def all_pairs(n: int) -> dict:
    """n rows against one column per pair a < b of n outcomes, the cell of
    row r reaching a, or b when a = r: row r reaches every outcome but r,
    so it is determined."""
    pairs = list(itertools.combinations(range(n), 2))
    return {"format": 1, "strategies": [n, len(pairs)], "outcomes": n,
            "v": [b if a == r else a for r in range(n) for a, b in pairs]}


def two_level_tree(k: int) -> et.GameTree:
    """Player 1 takes one of k leaves, outcomes 0..k-1, or one of two
    player-2 nodes of k leaves each, outcomes k..2k-1 and 0..k-1: a
    normal form of k + 2 rows, k^2 columns and 2k outcomes."""
    leaves = [{"leaf": o} for o in range(k)]
    tree = {"owner": "a", "children": leaves + [
        {"owner": "b", "children": [{"leaf": k + o} for o in range(k)]},
        {"owner": "b", "children": leaves}]}
    return jsonio.from_obj({"format": 1, "outcomes": 2 * k, "tree": tree})


def diagonal(n: int) -> dict:
    """n rows against one column, row o reaching outcome o: determined, as
    a label holding outcome o holds row o, and the empty one misses the
    column."""
    return {"format": 1, "strategies": [n, 1], "outcomes": n,
            "v": list(range(n))}


# A plain arena whose start and win_sets a dump must keep for
# ``solve-muller`` to report the same on the dumped file.
ARENA_START_1 = {"format": 1, "vertices": 3, "owned": [0],
                 "edges": [[0, 1], [1, 0], [0, 0], [1, 2], [2, 1]],
                 "colors": [1, 2, 3], "start": 1,
                 "win_sets": [[1, 2], [2, 3]]}

# Each cap README names: its value, and what a row's size counts against
# it.
CAPS: dict[str, tuple[int, Callable[[int], int]]] = {
    "errors.DEFAULT_PROFILE_CAP":
        (errors.DEFAULT_PROFILE_CAP, lambda n: n ** 3),  # ladder cells
    "errors.DEFAULT_OUTCOME_CAP":
        (errors.DEFAULT_OUTCOME_CAP, lambda n: n),
    "errors.MAX_MULLER_COLOURS":
        (errors.MAX_MULLER_COLOURS, lambda n: n),
    "errors.MAX_SAMPLES": (errors.MAX_SAMPLES, lambda n: n),
    "errors.MAX_OUTCOMES": (errors.MAX_OUTCOMES, lambda n: n),
    "errors.MAX_TREE_DEPTH": (errors.MAX_TREE_DEPTH, lambda n: n),
}

TIMEOUT = 60  # seconds per row, through the console script


@dataclass(frozen=True)
class Row:
    """One command and what it must give.  In ``argv``, ``{input}`` is
    the file ``make(size)`` writes, a JSON document or its text, and
    ``{size}`` the size itself."""
    name: str
    argv: tuple[str, ...]
    make: Optional[Callable[[int], Union[dict, str]]] = None
    size: int = 0
    code: int = 0
    stdout: str = ""  # text a line of standard output must start with
    stderr: str = ""  # text standard error must contain
    same_as: str = ""  # an earlier row whose standard output this one repeats
    caps: tuple[str, ...] = ()  # keys of CAPS this row probes
    tier1_size: Optional[int] = None  # in-process, when below ``size``
    memory_kb: Optional[int] = None  # the child's address-space limit


CORPUS = corpus.list_entries()

ROWS = [
    Row("priority_game", ("transfer", fixture_path("priority_game.json"))),
    Row("muller_game", ("transfer", fixture_path("muller_game.json"))),
    Row("arena_small", ("solve-muller", fixture_path("arena_small.json"))),
    Row("shuffled_chain_5000", ("solve-parity", "{input}"),
        lambda n: plain_arena(shuffled_chain_arena(n, random.Random(n))),
        5000),
    Row("sorted_chain_1000", ("solve-parity", "{input}"),
        lambda n: plain_arena(chain_arena(n)), 1000),
    Row("priority_game_10000", ("transfer", "{input}"), priority_game, 10_000,
        stdout="Nash equilibrium"),
    # The deviation searches read residual components of up to 76,806
    # states: one pass each, and one more per run of unwanted colours.
    Row("priority_game_100000", ("transfer", "{input}"), priority_game,
        100_000, stdout="Nash equilibrium", tier1_size=1_000),
    # Out of address space, the load is refused rather than crashed: the
    # parse runs out at this limit, about a third of what a full run takes.
    # In-process, where no limit can be set, the loader raises MemoryError.
    Row("priority_game_1000000", ("transfer", "{input}"), priority_game,
        1_000_000, code=2, stderr="input too large for available memory",
        tier1_size=100, memory_kb=500_000),
    # Arena construction must stay linear in the out-degree: a list-scan
    # dedupe took 1.4 s at 20,000 successors, growing with their square.
    Row("star_200000", ("transfer", "{input}"), star_game, 200_000,
        stdout="Nash equilibrium", tier1_size=20_000),
    Row("muller_game_200", ("transfer", "{input}"),
        lambda v: muller_docs(v)["game"], 200),
    Row("muller_arena_200", ("solve-muller", "{input}"),
        lambda v: muller_docs(v)["arena"], 200),
    Row("wide_4096", ("transfer", "{input}"), wide_normal_form, 4096,
        stdout="winner_calls = 4096 ", caps=("errors.MAX_OUTCOMES",)),
    Row("wide_4097", ("transfer", "{input}"), wide_normal_form, 4097, code=2,
        stderr="outcome count above the cap of 4096",
        caps=("errors.MAX_OUTCOMES",)),
    Row("ladder_8", ("corpus", "verify", "prop_5_4", "--n", "8",
                     "--samples", "2000")),
    Row("corpus_list", ("corpus", "list"),
        stdout="".join(f"{n}: {d}\n" for n, d in CORPUS)),
    *(Row(f"{action}_{name}", ("corpus", action, name, *extra))
      for name, _ in CORPUS
      for action, extra in (("build", ()), ("verify", ("--samples", "200")))),
    Row("ladder_n_1", ("corpus", "verify", "prop_5_4", "--n", "1"), code=2,
        stderr="n must be at least 2, got 1"),
    Row("samples_0", ("corpus", "verify", "prop_5_4", "--samples", "0"),
        code=2, stderr="samples must be at least 1, got 0"),
    Row("samples_100000000", ("corpus", "verify", "prop_5_4", "--samples",
                              "100000000"), code=2,
        stderr="exceed the cap of 100000"),
    Row("fixed_entry_n", ("corpus", "verify", "remark_5_3", "--n", "5"),
        code=2, stderr="takes no size n"),
    Row("ring_30", ("solve-muller", "{input}"), colour_ring, 30, code=2,
        stderr="more than 20 colours reachable",
        caps=("errors.MAX_MULLER_COLOURS",)),
    Row("diagonal_28", ("check-determinacy", "--cap", "31", "{input}"),
        diagonal, 28, memory_kb=2_000_000),
    Row("list_n", ("corpus", "list", "--n", "7"), code=2),
    *(Row(f"corpus_{option[2:]}_before_action",
          ("corpus", option, "3", action, "prop_5_4"), code=2,
          stderr=f"{option} goes after the command")
      for option, action in (("--n", "build"), ("--samples", "verify"),
                             ("--seed", "verify"))),
    Row("build_samples", ("corpus", "build", "prop_5_4", "--samples", "0"),
        code=2),
    Row("arena_start_1", ("--json", "solve-muller", "{input}"),
        lambda _: ARENA_START_1),
    Row("arena_start_1_dumped", ("--json", "solve-muller", "{input}"),
        lambda _: jsonio.dumps(jsonio.from_obj(ARENA_START_1)),
        same_as="arena_start_1"),
    *(Row(f"three_players_{command}",
          (command, fixture_path("remark_5_3.json")), code=2,
          stderr="got 3 players")
      for command in ("transfer", "check-determinacy")),
    Row("ladder_100", ("corpus", "build", "prop_5_4", "--n", "{size}"),
        size=100, caps=("errors.DEFAULT_PROFILE_CAP",)),
    Row("ladder_101", ("corpus", "build", "prop_5_4", "--n", "{size}"),
        size=101, code=2, stderr="1030301 profiles, above the cap of 1000000",
        caps=("errors.DEFAULT_PROFILE_CAP",)),
    # 4,194,304 profiles: the tree transfer and determinacy check build no
    # normal form, solve refuses to.
    Row("wide_tree_21", ("transfer", "{input}"), wide_caterpillar, 21),
    Row("wide_tree_21_solve", ("solve", "{input}"), wide_caterpillar, 21,
        code=2,
        stderr="4194304 strategy profiles exceed cap 1000000"),
    # verify-ne checks a profile on the tree, at any profile count: 2^20
    # here, 2^251 (about 3.6e75) below.
    Row("wide_tree_19_verify", ("verify-ne", "--profile", "0,0", "{input}"),
        wide_caterpillar, 19, code=1, stdout="(0, 0) is not an equilibrium"),
    Row("wide_tree_250_verify", ("verify-ne", "--profile", "0,0",
                                 "{input}"),
        wide_caterpillar, 250, stdout="(0, 0) is an equilibrium"),
    Row("wide_tree_21_determinacy", ("check-determinacy", "{input}"),
        wide_caterpillar, 21, stdout="determined"),
    Row("diagonal_20", ("check-determinacy", "{input}"), diagonal, 20,
        caps=("errors.DEFAULT_OUTCOME_CAP",)),
    Row("diagonal_21", ("check-determinacy", "{input}"), diagonal, 21, code=2,
        stderr="21 outcomes exceed determinacy cap 20",
        caps=("errors.DEFAULT_OUTCOME_CAP",)),
    Row("diagonal_21_cap_21", ("check-determinacy", "--cap", "21", "{input}"),
        diagonal, 21),
    # Determined, with far more labels than rows and columns: the search
    # must rule out a label nobody wins among 2^20, and 2^60 on the tree.
    Row("transversal_pairs_10", ("check-determinacy", "{input}"),
        transversal_pairs, 10, stdout="determined"),
    Row("all_pairs_20", ("check-determinacy", "{input}"), all_pairs, 20,
        stdout="determined"),
    Row("wide_tree_60", ("check-determinacy", "--cap", "64", "{input}"),
        lambda n: jsonio.dumps(et.to_normal_form(two_level_tree(n))), 30,
        stdout="determined"),
    Row("ring_20", ("solve-muller", "{input}"), colour_ring, 20,
        stdout="player 2 wins", caps=("errors.MAX_MULLER_COLOURS",)),
    Row("ring_21", ("solve-muller", "{input}"), colour_ring, 21, code=2,
        stderr="more than 20 colours reachable",
        caps=("errors.MAX_MULLER_COLOURS",)),
    Row("samples_100000", ("corpus", "verify", "prop_5_4", "--n", "3",
                           "--samples", "{size}"), size=100_000,
        stdout="short-chain-ne: confirmed (sampled; 100000/100000 sampled",
        caps=("errors.MAX_SAMPLES",)),
    Row("samples_100000_n_8", ("corpus", "verify", "prop_5_4", "--n", "8",
                               "--samples", "{size}"), size=100_000,
        stdout="short-chain-ne: confirmed (sampled; 100000/100000 sampled",
        caps=("errors.MAX_SAMPLES",)),
    Row("samples_100001", ("corpus", "verify", "prop_5_4", "--n", "3",
                           "--samples", "{size}"), size=100_001, code=2,
        stderr="100001 samples exceed the cap of 100000",
        caps=("errors.MAX_SAMPLES",)),
    # Past the cap the loader refuses; from about 470 levels on, with the
    # caller's stack, the parser refuses first.
    Row("caterpillar_400", ("transfer", "{input}"), caterpillar_text, 400,
        caps=("errors.MAX_TREE_DEPTH",)),
    *(Row(f"caterpillar_{depth}", ("transfer", "{input}"), caterpillar_text,
          depth, code=2, stderr="nested deeper",
          caps=("errors.MAX_TREE_DEPTH",)) for depth in (401, 495, 600)),
    # Values jsonio leaves to the model constructors, still refused by name.
    Row("pairs_float_twin", ("transfer", "{input}"),
        lambda _: {**diagonal(2), "preferences": [
            {"pairs": [[0, 1], [0, 1.0]]}, {"pairs": [[1, 0]]}]},
        code=2, stderr="preference pairs"),
    Row("flat_tree_no_root", ("transfer", "{input}"),
        lambda _: {"format": 1, "outcomes": 1,
                   "tree": {"owners": [1], "children": [[-1]]},
                   "preferences": [{"pairs": []}, {"pairs": []}]},
        code=2, stderr="'root'"),
    # Written flat, the same game nests four JSON levels at any depth.
    Row("flat_caterpillar_100000", ("transfer", "{input}"),
        lambda n: jsonio.dumps(caterpillar_game(n)), 100_000,
        stdout="Nash equilibrium"),
]

ROW = {row.name: row for row in ROWS}


def command(row: Row, size: int, directory: str) -> list[str]:
    """The row's arguments at ``size``, with its input written to a file
    in ``directory``."""
    path = os.path.join(directory, row.name + ".json")
    if row.make is not None:
        doc = row.make(size)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    return [arg.format(input=path, size=size) for arg in row.argv]


def problems(row: Row, code: int, out: str, err: str) -> list[str]:
    """What one run of the row got wrong; empty when it is right."""
    found = []
    if code != row.code:
        found.append(f"exit {code}, expected {row.code}")
    if "\n" + row.stdout not in "\n" + out:
        found.append(f"no line of standard output starts {row.stdout!r}")
    if row.stderr not in err:
        found.append(f"standard error lacks {row.stderr!r}")
    if "Traceback" in err:
        found.append("a traceback on standard error")
    return found


def address_space(kb: Optional[int]) -> Optional[Callable[[], None]]:
    """A hook that limits a child's address space to ``kb`` KiB, as
    ``ulimit -v`` does."""
    if kb is None:
        return None
    return lambda: resource.setrlimit(resource.RLIMIT_AS,
                                      (kb * 1024, kb * 1024))


def child_env(row: Row) -> Optional[dict[str, str]]:
    """Under an address-space limit, one BLAS thread: each thread reserves
    its own buffers, so the default count would tie the limit to the
    host's cores."""
    if row.memory_kb is None:
        return None
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def main() -> int:
    exe = shutil.which("eqtransfer")
    if exe is None:
        print("no eqtransfer console script: run python -m pip install -e .",
              file=sys.stderr)
        return 2
    failed, outputs = [], {}
    with tempfile.TemporaryDirectory() as directory:
        for row in ROWS:
            argv = command(row, row.size, directory)
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [exe, *argv], capture_output=True, text=True,
                    timeout=TIMEOUT, env=child_env(row),
                    preexec_fn=address_space(row.memory_kb))
            except subprocess.TimeoutExpired:
                found, code, err = [f"no exit within {TIMEOUT} s"], "-", ""
            else:
                code, err = proc.returncode, proc.stderr
                found = problems(row, code, proc.stdout, err)
                outputs[row.name] = proc.stdout
                if row.same_as and proc.stdout != outputs.get(row.same_as):
                    found.append(f"standard output differs from {row.same_as}")
            seconds = time.perf_counter() - start
            print(f"{row.name}: exit {code} in {seconds:.2f} s", flush=True)
            if found:
                failed.append(row.name)
                print("  FAILED: " + "; ".join(found) + "\n  eqtransfer "
                      + " ".join(argv) + "\n" + err[-2000:], flush=True)
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
