"""Seeded inputs, operations and answer checks for the benchmark workloads.

Every op starts from JSON text.  ``run`` is the untraced call a user makes;
``replay`` makes the same computation through the layers' public functions
under spans; ``check`` compares an answer with what is known without the
call being timed.

Sizes come from fixed pools, so that run-to-run spread measures the program,
not the luck of the draw.  Arenas are pool instances whose answers were
recorded when the pool was made (``arena_answers.json``); the run seed
renames their outcomes.  Tree shapes, owners included, are pool entries
that the run seed fills with leaf outcomes, child order and preferences.  Determinacy trees are whole pool entries whose
outcomes and children the run seed permutes.  Corpus entries and their
sampling seeds are fixed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

import eqtransfer as et
from eqtransfer import jsonio
from tracing import CellCounter, TimedOracle, Tracer

TIERS = ("small", "medium", "large")
N_OUTCOMES_ARENA = 8
CORPUS_SAMPLES = 300
ANSWERS_FILE = Path(__file__).with_name("arena_answers.json")

# Blocks per pass; every pool instance is used once per pass.
BLOCKS = {"tree_transfer": 13, "arena_ne": 5, "normal_form_decide": 12}

# One block of each workload: (kind, tier, count).  The counts keep the
# median and p90 of all ops inside a cluster of similar ops rather than in
# the gap between two, and put the layer each tier is meant to expose at
# that tier's median.
COMPOSITION = {
    "tree_transfer": [
        ("caterpillar", "small", 1), ("random_tree", "small", 1),
        ("caterpillar", "medium", 2), ("random_tree", "medium", 2),
        ("caterpillar", "large", 1), ("random_tree", "large", 1),
    ],
    "arena_ne": [
        ("priority", "small", 3), ("chain", "small", 3), ("muller", "small", 3),
        ("priority", "medium", 2), ("chain", "medium", 2), ("muller", "medium", 2),
        ("priority", "large", 2), ("chain", "large", 2), ("muller", "large", 2),
    ],
    "normal_form_decide": [
        ("nf_transfer", "small", 4), ("determined", "small", 1),
        ("corpus", "small", 1),
        ("corpus", "medium", 3), ("nf_transfer", "medium", 1),
        ("nondetermined", "medium", 1),
        ("determined", "large", 6), ("nondetermined", "large", 1),
        ("corpus", "large", 1), ("nf_transfer", "large", 1),
    ],
}

CATERPILLAR_DEPTH = {"small": 8, "medium": 11, "large": 13}
RANDOM_TREE_PROFILES = {"small": (192, 320), "medium": (1536, 2560),
                        "large": (6144, 10240)}
NF_OUTCOMES = {"small": 8, "medium": 10, "large": 12}
NF_PROFILES = (36, 72)
NF_STRATEGIES = (5, 10)
PRIORITY_VERTICES = {"small": 250, "medium": 500, "large": 600}
CHAIN_VERTICES = {"small": 30, "medium": 45, "large": 48}
MULLER_SIZE = {"small": (20, 3), "medium": (40, 5), "large": (20, 6)}
CORPUS_ENTRIES = {
    "small": [("remark_5_3", None), ("prop_5_4", 3), ("prop_5_4", 4)],
    "medium": [("prop_5_5", None), ("prop_5_6", None), ("prop_5_4", 5),
               ("prop_5_4", 6)],
    "large": [("prop_5_4", 7), ("prop_5_4", 8)],
}

# Claim names and exhaustive flags of each corpus entry at this commit.
_LADDER = (("no-ne", True), ("zero-sum-variant", True),
           ("short-chain-ne", False))
_DETERMINED = (("slices-determined", True), ("mergers-determined", True))
EXPECTED_CLAIMS = {
    "remark_5_3": (("no-ne", True), ("bit-instantiations-have-ne", True)),
    "prop_5_4": _LADDER,
    "prop_5_5": (("unit-vector-no-ne", True),) + _DETERMINED,
    "prop_5_6": (("statement-prefs-no-ne", True), ("proof-prefs-no-ne", True),
                 ("ne-table", True)) + _DETERMINED,
}
CLAIM_NAMES = sorted({c for claims in EXPECTED_CLAIMS.values()
                      for c, _ in claims})


class SetupError(Exception):
    """The generated inputs do not match the recorded pool."""


@dataclass
class Op:
    kind: str
    tier: str
    size: dict
    text: str
    expected: Any = None
    seed: int = 0
    extra: dict = field(default_factory=dict)
    pool: int = 0


# ---------------------------------------------------------------------------
# Preferences and trees as plain data.  A tree node is [owner, children]; a
# leaf is an outcome index (or None in a shape).

def _rankings(rng: random.Random, n: int) -> list[list[int]]:
    out = []
    for _ in range(2):
        r = list(range(n))
        rng.shuffle(r)
        out.append(r)
    return out


def _prefs_obj(rankings) -> list[dict]:
    return [{"pairs": [[r[i], r[j]] for i in range(len(r))
                       for j in range(i + 1, len(r))]} for r in rankings]


def _rank_arrays(rankings) -> list[np.ndarray]:
    arrays = []
    for r in rankings:
        a = np.empty(len(r), dtype=np.int64)
        a[r] = np.arange(len(r))
        arrays.append(a)
    return arrays


def _caterpillar_shape(depth: int, first: int) -> list:
    """Spine of ``depth`` binary nodes with alternating owners."""
    owner = first if depth % 2 else 3 - first
    node = [owner, [None, None]]
    for _ in range(depth - 1):
        owner = 3 - owner
        node = [owner, [None, node]]
    return node


def _random_shape(rng: random.Random, lo: int, hi: int) -> list:
    """Branching 2-3 shape with random owners whose profile count lies in
    [lo, hi]."""
    while True:
        root = [rng.choice((1, 2)), [None] * rng.randint(2, 3)]
        holes = [(root, i) for i in range(len(root[1]))]
        profiles = len(root[1])
        while profiles < lo:
            parent, i = holes.pop(rng.randrange(len(holes)))
            node = [rng.choice((1, 2)), [None] * rng.randint(2, 3)]
            parent[1][i] = node
            holes.extend((node, j) for j in range(len(node[1])))
            profiles *= len(node[1])
        if profiles <= hi:
            return root


def _strategy_counts(shape) -> tuple[int, int]:
    counts = [1, 1]
    for owner, kids in _internal_nodes(shape):
        counts[owner - 1] *= len(kids)
    return counts[0], counts[1]


def _fill_shape(rng: random.Random, shape, n_out: int):
    """Leaf outcomes and child order for a shape; owners stay."""
    if shape is None:
        return rng.randrange(n_out)
    kids = [_fill_shape(rng, c, n_out) for c in shape[1]]
    rng.shuffle(kids)
    return [shape[0], kids]


def _tree_obj(t) -> dict:
    if isinstance(t, int):
        return {"leaf": t}
    return {"owner": "a" if t[0] == 1 else "b",
            "children": [_tree_obj(c) for c in t[1]]}


def _internal_nodes(t, out=None) -> list:
    out = [] if out is None else out
    if isinstance(t, list):
        out.append(t)
        for c in t[1]:
            _internal_nodes(c, out)
    return out


def normal_form_table(root) -> np.ndarray:
    """Outcome table over full choice functions, indexed as the library
    documents: preorder nodes, first owned node most significant."""
    nodes = _internal_nodes(root)
    digits, counts = {}, {}
    for p in (1, 2):
        owned = [i for i, t in enumerate(nodes) if t[0] == p]
        count = 1
        for i in owned:
            count *= len(nodes[i][1])
        idx = np.arange(count)
        stride = count
        for i in owned:
            stride //= len(nodes[i][1])
            digits[i] = (idx // stride) % len(nodes[i][1])
        counts[p] = count
    shape = (counts[1], counts[2])
    index = {id(t): i for i, t in enumerate(nodes)}

    def table(t):
        if isinstance(t, int):
            return t
        d = digits[index[id(t)]]
        d = d[:, None] if t[0] == 1 else d[None, :]
        out = np.empty(shape, dtype=np.int64)
        for c, child in enumerate(t[1]):
            np.copyto(out, table(child), where=np.broadcast_to(d == c, shape))
        return out

    return np.broadcast_to(np.asarray(table(root)), shape).copy()


def is_pure_ne(table: np.ndarray, ranks, profile) -> bool:
    i, j = profile
    o = table[i, j]
    return (ranks[0][table[:, j]].max() <= ranks[0][o]
            and ranks[1][table[i, :]].max() <= ranks[1][o])


def _structure_outcome(table: np.ndarray, n_out: int, rankings) -> int:
    """Transfer outcome from the brute-force StructureOracle."""
    prefs = et.PreferenceProfile(tuple(
        et.Preference.from_ranking(r) for r in rankings))
    st = et.GameStructure(table.shape, et.OutcomeSet(n_out), table)
    profile, _ = et.transfer_equilibrium(et.NormalFormGame(st, prefs))
    return int(table[profile])


# ---------------------------------------------------------------------------
# tree_transfer

def _tree_op(rng: random.Random, kind: str, tier: str, shape) -> Op:
    n_out = rng.randint(6, 10)
    root = _fill_shape(rng, shape, n_out)
    rankings = _rankings(rng, n_out)
    text = json.dumps({"format": 1, "tree": _tree_obj(root),
                       "outcomes": n_out, "preferences": _prefs_obj(rankings)})
    table = normal_form_table(root)
    expected = {"outcome": _structure_outcome(table, n_out, rankings),
                "table": table, "ranks": _rank_arrays(rankings), "n": n_out}
    size = {"profiles": int(table.size), "nodes": len(_internal_nodes(root)),
            "outcomes": n_out}
    return Op(kind, tier, size, text, expected)


def _tree_shape(kind: str, tier: str, k: int):
    if kind == "caterpillar":
        return _caterpillar_shape(CATERPILLAR_DEPTH[tier], 1 + k % 2)
    lo, hi = RANDOM_TREE_PROFILES[tier]
    return _random_shape(random.Random(f"shape/{kind}/{tier}/{k}"), lo, hi)


def run_tree(op: Op):
    tree, prefs = jsonio.loads(op.text)
    profile, counter = et.kuhn_via_transfer(tree, prefs)
    return (tuple(profile), counter.winner_calls, counter.strategy_calls)


def replay_tree(op: Op, tr: Tracer):
    tree, prefs = _load(tr, op.text)
    with tr.span("extensive.oracle_build"):
        inner = et.TreeOracle(tree)
    oracle = TimedOracle(inner, tr, "extensive.winner", "extensive.strategy")
    result = _transfer(tr, oracle, prefs)
    cells = CellCounter(inner.structure)
    profile = (result.strategy_1.handle, result.strategy_2.handle)
    _verify_profile(tr, et.NormalFormGame(cells, prefs), profile, result)
    tr.count("extensive.normal_form_cells", inner.structure.profile_count)
    tr.count("extensive.cells_read", cells.reads)
    return (tuple(profile), result.counter.winner_calls,
            result.counter.strategy_calls)


def check_transfer(op: Op, answer) -> Optional[str]:
    profile, winner_calls, strategy_calls = answer
    exp = op.expected
    if winner_calls > exp["n"] or strategy_calls > 2:
        return f"call budget exceeded: {winner_calls} winner, " \
               f"{strategy_calls} strategy"
    table = exp["table"]
    if not all(0 <= s < c for s, c in zip(profile, table.shape)):
        return f"profile {profile} out of range"
    if int(table[profile]) != exp["outcome"]:
        return f"outcome {int(table[profile])}, expected {exp['outcome']}"
    if not is_pure_ne(table, exp["ranks"], profile):
        return f"profile {profile} is not an equilibrium"
    return None


def corrupt_transfer(op: Op, answer):
    table = op.expected["table"]
    wrong = np.argwhere(table != op.expected["outcome"])
    profile = tuple(int(x) for x in wrong[0]) if len(wrong) else (-1, -1)
    return (profile,) + tuple(answer[1:])


# ---------------------------------------------------------------------------
# arena_ne

def _random_edges(rng: random.Random, v: int) -> list[list[int]]:
    order = list(range(v))
    rng.shuffle(order)
    succ = [set() for _ in range(v)]
    for i in range(v):
        succ[order[i]].add(order[(i + 1) % v])
    for u in range(v):
        succ[u].update(rng.sample(range(v), rng.randint(0, 2)))
    return [[u, w] for u in range(v) for w in sorted(succ[u])]


def arena_doc(family: str, tier: str, k: int) -> dict:
    """Canonical pool instance; its answer is recorded in ANSWERS_FILE."""
    rng = random.Random(f"arena/{family}/{tier}/{k}")
    n = N_OUTCOMES_ARENA
    if family == "chain":
        v = CHAIN_VERTICES[tier]
        owned = list(range(0, v, 2))
        edges = [[u, (u + 1) % v] for u in range(v)] + [[u, u] for u in range(v)]
        colors = list(range(v))
        rng.shuffle(colors)
        r = [[c, rng.randrange(n)] for c in range(v)]
        kind, start = "priority", 0
    elif family == "priority":
        v = PRIORITY_VERTICES[tier]
        owned = [u for u in range(v) if rng.random() < 0.5]
        edges = _random_edges(rng, v)
        colors = [rng.randrange(16) for _ in range(v)]
        r = [[c, rng.randrange(n)] for c in range(16)]
        kind, start = "priority", rng.randrange(v)
    else:
        v, n_colors = MULLER_SIZE[tier]
        owned = [u for u in range(v) if rng.random() < 0.5]
        edges = _random_edges(rng, v)
        colors = [u % n_colors for u in range(v)]
        rng.shuffle(colors)
        r = [[list(combo), rng.randrange(n)]
             for size in range(1, n_colors + 1)
             for combo in itertools.combinations(range(n_colors), size)]
        kind, start = "muller", rng.randrange(v)
    return {"format": 1, "vertices": v, "owned": owned, "edges": edges,
            "colors": colors, "start": start, "kind": kind, "outcomes": n,
            "r": r, "preferences": _prefs_obj(_rankings(rng, n))}


def doc_digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def relabel_arena(doc: dict, rng: random.Random, perm: list[int]) -> dict:
    """An isomorphic copy with outcomes renamed by ``perm``.  Vertex names
    and edge order stay: the attractor's sweep order follows vertex numbers
    and successor order picks among equally good strategies, so changing
    either would change the cost along with the input."""
    r = [[key, perm[o]] for key, o in doc["r"]]
    rng.shuffle(r)
    prefs = [{"pairs": [[perm[x], perm[y]] for x, y in p["pairs"]]}
             for p in doc["preferences"]]
    return dict(doc, r=r, preferences=prefs)


def load_answers() -> dict:
    with open(ANSWERS_FILE, encoding="utf-8") as fh:
        return json.load(fh)["answers"]


def _arena_op(rng: random.Random, family: str, tier: str, k: int,
              answers: dict) -> Op:
    doc = arena_doc(family, tier, k)
    key = f"{family}/{tier}/{k}"
    recorded = answers.get(key)
    if recorded is None or recorded["sha256"] != doc_digest(doc):
        raise SetupError(f"arena pool instance {key} differs from the "
                         f"recorded one; rerun with --record-answers")
    size = {"vertices": doc["vertices"], "edges": len(doc["edges"]),
            "colors": len(set(doc["colors"])), "outcomes": doc["outcomes"]}
    perm = list(range(doc["outcomes"]))
    rng.shuffle(perm)
    text = json.dumps(relabel_arena(doc, rng, perm))
    return Op(family, tier, size, text, {"outcome": perm[recorded["outcome"]],
                                         "n": doc["outcomes"]})


def run_arena(op: Op):
    eq = et.multi_outcome_ne(jsonio.loads(op.text))
    return (eq.outcome, eq.counter.winner_calls, eq.counter.strategy_calls)


def replay_arena(op: Op, tr: Tracer):
    game = _load(tr, op.text)
    if game.kind == "priority":
        inner, prefix = et.PriorityOracle(game), "graph_games.parity"
    else:
        inner, prefix = et.MullerOracle(game), "graph_games.muller"
    oracle = TimedOracle(inner, tr, prefix + ".winner", prefix + ".strategy")
    with tr.span("transfer.driver"):
        for p in game.preferences.prefs:
            if game.kind == "priority" and et.height(p) is None:
                raise et.UnboundedHeightError("preference of unbounded height")
            if game.kind == "muller" and not et.is_acyclic(p):
                raise et.CyclicPreferenceError("cyclic preference")
        result = et.run_transfer(oracle, game.preferences)
    tr.count("transfer.winner_calls", result.counter.winner_calls)
    tr.count("transfer.strategy_calls", result.counter.strategy_calls)
    s1, s2 = result.strategy_1.handle, result.strategy_2.handle
    with tr.span("graph_games.play"):
        played = game.outcome_of_play(et.play_of(game.arena, game.start, s1, s2))
    if played != result.outcome:
        raise et.NotDeterminedError("profile misses the promised outcome")
    with tr.span("graph_games.deviation"):
        for deviator, fixed in ((1, s2), (2, s1)):
            pref = game.preferences[deviator - 1]
            for alt in et.achievable_deviation_outcomes(game, fixed, deviator):
                if pref.less(played, alt):
                    raise et.NotDeterminedError("profitable deviation")
    return (played, result.counter.winner_calls, result.counter.strategy_calls)


def check_arena(op: Op, answer) -> Optional[str]:
    outcome, winner_calls, strategy_calls = answer
    if winner_calls > op.expected["n"] or strategy_calls > 2:
        return f"call budget exceeded: {winner_calls} winner, " \
               f"{strategy_calls} strategy"
    if outcome != op.expected["outcome"]:
        return f"outcome {outcome}, recorded {op.expected['outcome']}"
    return None


def corrupt_arena(op: Op, answer):
    return ((answer[0] + 1) % op.expected["n"],) + tuple(answer[1:])


def record_answers() -> dict:
    """Solve every arena pool instance once; the result is ANSWERS_FILE."""
    answers = {}
    for family, tier, count in COMPOSITION["arena_ne"]:
        for k in range(count * BLOCKS["arena_ne"]):
            doc = arena_doc(family, tier, k)
            eq = et.multi_outcome_ne(jsonio.loads(json.dumps(doc)))
            answers[f"{family}/{tier}/{k}"] = {"sha256": doc_digest(doc),
                                               "outcome": eq.outcome}
    return {"format": 1, "answers": answers}


# ---------------------------------------------------------------------------
# normal_form_decide

def _nf_shape(kind: str, tier: str, k: int):
    """Pool entry: the size of a planted structure, or a whole tree."""
    rng = random.Random(f"shape/{kind}/{tier}/{k}")
    if kind == "nondetermined":
        return (rng.randint(4, 8), rng.randint(4, 8))
    while True:
        shape = _random_shape(rng, *NF_PROFILES)
        if all(NF_STRATEGIES[0] <= c <= NF_STRATEGIES[1]
               for c in _strategy_counts(shape)):
            return _fill_shape(rng, shape, NF_OUTCOMES[tier])


def _relabel_tree(rng: random.Random, t, perm: list[int]):
    """An isomorphic tree: outcomes renamed by ``perm``, children shuffled.
    A determinacy scan visits the same labels on it; only the order of the
    normal form's rows and columns changes."""
    if isinstance(t, int):
        return perm[t]
    kids = [_relabel_tree(rng, c, perm) for c in t[1]]
    rng.shuffle(kids)
    return [t[0], kids]


def _determined_op(rng: random.Random, kind: str, tier: str, tree) -> Op:
    n_out = NF_OUTCOMES[tier]
    perm = list(range(n_out))
    rng.shuffle(perm)
    root = _relabel_tree(rng, tree, perm)
    table = normal_form_table(root)
    doc = {"format": 1, "players": 2, "strategies": list(table.shape),
           "outcomes": n_out, "v": [int(x) for x in table.reshape(-1)]}
    size = {"profiles": int(table.size), "outcomes": n_out,
            "strategies": list(table.shape)}
    if kind == "determined":
        return Op(kind, tier, size, json.dumps(doc), True)
    rankings = _rankings(rng, n_out)
    doc["preferences"] = _prefs_obj(rankings)
    tree_text = json.dumps({"format": 1, "tree": _tree_obj(root),
                            "outcomes": n_out,
                            "preferences": _prefs_obj(rankings)})
    profile, _ = et.kuhn_via_transfer(*jsonio.loads(tree_text))
    expected = {"outcome": int(table[profile]), "table": table,
                "ranks": _rank_arrays(rankings), "n": n_out}
    return Op(kind, tier, size, json.dumps(doc), expected)


def _nondetermined_op(rng: random.Random, tier: str, shape) -> Op:
    """Every row and every column meets both the last outcome and the
    others, so the label holding only the last outcome, the second one
    is_determined scans, has no winner."""
    n_out = NF_OUTCOMES[tier]
    rows, cols = shape
    table = [[n_out - 1 if (i + j) % 2 == 0 else rng.randrange(n_out - 1)
              for j in range(cols)] for i in range(rows)]
    rng.shuffle(table)
    doc = {"format": 1, "players": 2, "strategies": [rows, cols],
           "outcomes": n_out, "v": [x for row in table for x in row]}
    size = {"profiles": rows * cols, "outcomes": n_out,
            "strategies": [rows, cols]}
    return Op("nondetermined", tier, size, json.dumps(doc), False)


def _corpus_op(tier: str, k: int) -> Op:
    """The corpus is fixed, and so is each pool entry's sampling seed."""
    name, n = CORPUS_ENTRIES[tier][k % len(CORPUS_ENTRIES[tier])]
    entry = et.build(name, n)
    size = {"profiles": entry.structure.profile_count,
            "outcomes": entry.structure.outcomes.size,
            "claims": len(entry.claims)}
    return Op("corpus", tier, size, jsonio.dumps(entry.game),
              EXPECTED_CLAIMS[name], seed=k, extra={"name": name, "n": n})


def run_determinacy(op: Op):
    return (et.is_determined(jsonio.loads(op.text)),)


def replay_determinacy(op: Op, tr: Tracer):
    st = _load(tr, op.text)
    with tr.span("normal_form.determinacy"):
        return (et.is_determined(st),)


def check_determinacy(op: Op, answer) -> Optional[str]:
    if answer[0] != op.expected:
        return f"verdict {answer[0]}, constructed {op.expected}"
    return None


def run_nf_transfer(op: Op):
    profile, counter = et.transfer_equilibrium(jsonio.loads(op.text))
    return (tuple(profile), counter.winner_calls, counter.strategy_calls)


def replay_nf_transfer(op: Op, tr: Tracer):
    game = _load(tr, op.text)
    span = "normal_form.structure_oracle"
    oracle = TimedOracle(et.StructureOracle(game.structure), tr, span, span)
    result = _transfer(tr, oracle, game.preferences)
    profile = (result.strategy_1.handle, result.strategy_2.handle)
    _verify_profile(tr, game, profile, result)
    return (tuple(profile), result.counter.winner_calls,
            result.counter.strategy_calls)


def run_corpus(op: Op):
    game = jsonio.loads(op.text)
    entry = et.build(op.extra["name"], op.extra["n"])
    reports = et.verify(entry, seed=op.seed, samples=CORPUS_SAMPLES)
    return (game.structure == entry.structure,
            tuple((r.claim, r.passed, r.exhaustive) for r in reports))


def replay_corpus(op: Op, tr: Tracer):
    game = _load(tr, op.text)
    with tr.span("corpus.build"):
        entry = et.build(op.extra["name"], op.extra["n"])
    reports = []
    for i, claim in enumerate(entry.claims):
        # the per-claim generator seeding that corpus.verify documents
        rng = random.Random(f"{op.seed}:{entry.name}:{i}")
        with tr.span(f"corpus.claim.{claim.name}"):
            reports.append(claim.check(rng, CORPUS_SAMPLES))
    return (game.structure == entry.structure,
            tuple((r.claim, r.passed, r.exhaustive) for r in reports))


def check_corpus(op: Op, answer) -> Optional[str]:
    same, reports = answer
    if not same:
        return "loaded structure differs from the corpus entry"
    if tuple((c, e) for c, _, e in reports) != op.expected:
        return f"claims or exhaustive flags changed: {reports}"
    failing = [c for c, passed, _ in reports if not passed]
    if failing:
        return f"claims failed: {failing}"
    return None


def corrupt_corpus(op: Op, answer):
    same, reports = answer
    (claim, passed, exhaustive), rest = reports[0], reports[1:]
    return (same, ((claim, not passed, exhaustive),) + rest)


def corrupt_determinacy(op: Op, answer):
    return (not answer[0],)


# ---------------------------------------------------------------------------
# Shared replay steps.

def _load(tr: Tracer, text: str):
    with tr.span("jsonio.parse"):
        obj = json.loads(text)
    with tr.span("jsonio.build"):
        value = jsonio.from_obj(obj)
    tr.count("jsonio.bytes", len(text))
    return value


def _transfer(tr: Tracer, oracle, prefs):
    with tr.span("transfer.driver"):
        result = et.run_transfer(oracle, prefs)
    tr.count("transfer.winner_calls", result.counter.winner_calls)
    tr.count("transfer.strategy_calls", result.counter.strategy_calls)
    return result


def _verify_profile(tr: Tracer, game, profile, result) -> None:
    """The checks transfer_equilibrium makes on the returned profile."""
    with tr.span("normal_form.verify"):
        if game.structure.outcome(profile) != result.outcome:
            raise et.NotDeterminedError("profile misses the promised outcome")
        if not et.is_nash_equilibrium(game, profile):
            raise et.NotDeterminedError("non-equilibrium profile")


@dataclass(frozen=True)
class Handlers:
    run: Any
    replay: Any
    check: Any
    corrupt: Any


_TREE = Handlers(run_tree, replay_tree, check_transfer, corrupt_transfer)
_ARENA = Handlers(run_arena, replay_arena, check_arena, corrupt_arena)
_DECIDE = Handlers(run_determinacy, replay_determinacy, check_determinacy,
                   corrupt_determinacy)
HANDLERS = {
    "caterpillar": _TREE, "random_tree": _TREE,
    "priority": _ARENA, "chain": _ARENA, "muller": _ARENA,
    "determined": _DECIDE, "nondetermined": _DECIDE,
    "nf_transfer": Handlers(run_nf_transfer, replay_nf_transfer,
                            check_transfer, corrupt_transfer),
    "corpus": Handlers(run_corpus, replay_corpus, check_corpus,
                       corrupt_corpus),
}


def generate(workload: str, seed: int,
             blocks: Optional[int] = None) -> list[list[Op]]:
    """One pass: ``blocks`` blocks, each with the workload's composition in
    a seeded order."""
    full = BLOCKS[workload]
    blocks = full if blocks is None else blocks
    rng = random.Random(f"{workload}/{seed}")
    answers = load_answers() if workload == "arena_ne" else None
    ops_by_block: list[list[Op]] = [[] for _ in range(blocks)]
    for kind, tier, count in COMPOSITION[workload]:
        picks = list(range(count * full))
        rng.shuffle(picks)
        for b in range(blocks):
            for k in picks[b * count:(b + 1) * count]:
                if workload == "arena_ne":
                    op = _arena_op(rng, kind, tier, k, answers)
                elif workload == "tree_transfer":
                    op = _tree_op(rng, kind, tier, _tree_shape(kind, tier, k))
                elif kind == "corpus":
                    op = _corpus_op(tier, k)
                elif kind == "nondetermined":
                    op = _nondetermined_op(rng, tier, _nf_shape(kind, tier, k))
                else:
                    op = _determined_op(rng, kind, tier,
                                        _nf_shape("determined", tier, k))
                op.pool = k
                ops_by_block[b].append(op)
    for block in ops_by_block:
        rng.shuffle(block)
    return ops_by_block
