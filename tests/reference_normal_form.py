"""Reference solvers for the tests, checked profile by profile and label
by label: Nash equilibria by trying every unilateral deviation, determinacy
by scanning for a winning row or column or by testing every label at once,
the corpus claims built on them, and the companion reductions cell by
cell.  The package decides all of these on outcome bit masks or lookup
arrays instead; these are what it is compared with."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

import eqtransfer as et
from eqtransfer.prefs import _upward_cone


@dataclass(frozen=True)
class WinLoseGame:
    """Two-player structure plus a label mask: bit o set marks outcome o as
    a player-1 win."""

    structure: et.GameStructure
    label: int

    def __post_init__(self):
        if self.structure.players != 2:
            raise ValueError("win-lose games have exactly two players")
        if not 0 <= self.label < 1 << self.structure.outcomes.size:
            raise ValueError("label names an outcome outside the outcome set")


def derive_win_lose(st: et.GameStructure, label: int) -> WinLoseGame:
    return WinLoseGame(st, label)


def winning_strategy(w: WinLoseGame) -> Optional[tuple[int, int]]:
    """A (player, strategy) guaranteeing that player's win, or None.

    Scans player 1's strategies in ascending index order first, then player 2's.
    """
    table = w.structure.table
    n = w.structure.outcomes.size
    bits = np.array([w.label >> o & 1 for o in range(n)], dtype=bool)
    wins = bits[table]  # True where player 1 wins
    for i in range(w.structure.strategy_counts[0]):
        if wins[i, :].all():
            return (1, i)
    for j in range(w.structure.strategy_counts[1]):
        if not wins[:, j].any():
            return (2, j)
    return None


def brute_enforcing_strategy(st: et.GameStructure, player: int,
                             subset: int) -> Optional[int]:
    """Lowest-index strategy of the player keeping every outcome of its row
    or column inside the subset, from a boolean table of the subset."""
    inside = np.array([subset >> o & 1 for o in range(st.outcomes.size)],
                      dtype=bool)[st.table]
    hits = np.flatnonzero(inside.all(axis=1) if player == 1
                          else inside.all(axis=0))
    return int(hits[0]) if hits.size else None


def can_enforce(st: et.GameStructure, player: int,
                subset: int) -> bool:
    """True iff the player has a strategy keeping the outcome inside the subset."""
    return et.enforcing_strategy(st, player, subset) is not None


def is_determined_by_enforcement(st: et.GameStructure,
                                 cap: int = et.DEFAULT_OUTCOME_CAP) -> bool:
    """Equivalent characterisation: each subset is enforced by player 1 or
    its complement is enforced by player 2."""
    n = st.outcomes.size
    if n > cap:
        raise et.TooLargeError(f"{n} outcomes exceed determinacy cap {cap}")
    full = (1 << n) - 1
    return all(can_enforce(st, 1, lab) or can_enforce(st, 2, lab ^ full)
               for lab in range(1 << n))


def brute_is_determined(st: et.GameStructure) -> bool:
    """Every label has a winner, found by scanning rows and columns."""
    return all(winning_strategy(derive_win_lose(st, lab)) is not None
               for lab in range(1 << st.outcomes.size))


def scan_is_determined(st: et.GameStructure, cap: int = 20) -> bool:
    """Every label has a winner, all 2^n labels tested at once as uint32
    bit masks against each distinct row and column outcome mask; the
    labels of 20 outcomes take 4 MB."""
    n = st.outcomes.size
    if n > cap:
        raise et.TooLargeError(f"{n} outcomes exceed the scan's cap {cap}")
    reach = np.left_shift(np.uint32(1), st.table.astype(np.uint32))
    labels = np.arange(1 << n, dtype=np.uint32)
    won = np.zeros(labels.size, dtype=bool)
    for row in np.unique(np.bitwise_or.reduce(reach, axis=1)):
        won |= (labels & row) == row
    for col in np.unique(np.bitwise_or.reduce(reach, axis=0)):
        won |= (labels & col) == 0
    return bool(won.all())


def backward_induction_oracle(t: et.GameTree) -> et.TreeOracle:
    return et.TreeOracle(t)


def deviations(structure: et.GameStructure, s: et.Profile,
               player: int) -> Iterator[et.Profile]:
    """All profiles differing from s at most in the given player's component."""
    for alt in range(structure.strategy_counts[player]):
        if alt != s[player]:
            yield s[:player] + (alt,) + s[player + 1:]


def brute_is_nash_equilibrium(g: et.NormalFormGame, s: et.Profile) -> bool:
    """No player can unilaterally reach a strictly preferred outcome."""
    st = g.structure
    base = st.outcome(s)
    for player in range(st.players):
        pref = g.preferences[player]
        for s2 in deviations(st, s, player):
            if pref.less(base, st.outcome(s2)):
                return False
    return True


def brute_find_all_ne(g: et.NormalFormGame,
                      cap: int = et.DEFAULT_PROFILE_CAP) -> list[et.Profile]:
    """Brute-force enumeration in lexicographic profile order."""
    st = g.structure
    if st.profile_count > cap:
        raise et.TooLargeError(f"{st.profile_count} profiles exceed cap {cap}")
    return [s for s in st.profiles() if brute_is_nash_equilibrium(g, s)]


def brute_has_ne(g: et.NormalFormGame) -> bool:
    return any(brute_is_nash_equilibrium(g, s) for s in g.structure.profiles())


def short_chain_relations(size: int, max_height: int) -> list[frozenset]:
    """All acyclic relations on ``size`` outcomes with height <= max_height."""
    universe = [(x, y) for x in range(size) for y in range(size) if x != y]
    found = []
    for mask in range(1 << len(universe)):
        pairs = frozenset(p for i, p in enumerate(universe) if mask >> i & 1)
        p = et.Preference.from_pairs(size, pairs)
        if et.is_acyclic(p) and et.height(p) <= max_height:
            found.append(pairs)
    return found


def relation_of(words, size: int) -> et.Preference:
    """The relation whose better masks, cut into 64-bit words, are
    ``words``: the pair (x, y) for bit y of entry x."""
    return et.Preference.from_pairs(size, [
        (x, y) for x in range(size) for y in range(size)
        if int(words[y // 64][x]) >> y % 64 & 1])


def sampled_relations(rng: random.Random, size: int,
                      samples: int) -> Iterator[tuple[et.Preference, ...]]:
    """The triples the corpus's short-chain sampler draws, as Preferences."""
    for chunk in et.corpus._short_chain_samples(rng, size, samples):
        for t in range(len(chunk[0])):
            yield tuple(relation_of([w[t, p] for w in chunk], size)
                        for p in range(3))


def short_chain_report(st: et.GameStructure, rng: random.Random,
                       samples: int) -> et.ClaimReport:
    """The ``short-chain-ne`` claim, one Preference triple at a time, on
    the triples the package's sampler draws; up to three outcomes it runs
    over every relation of height below the outcome count."""
    size = st.outcomes.size
    if size <= 3:
        rels = short_chain_relations(size, size - 1)
        total = ok = 0
        for triple in itertools.product(rels, repeat=3):
            total += 1
            prefs = et.PreferenceProfile(tuple(
                et.Preference(st.outcomes, r) for r in triple))
            ok += brute_has_ne(et.NormalFormGame(st, prefs))
        return et.ClaimReport("short-chain-ne", ok == total, True,
                              f"{ok}/{total} short-chain preference triples "
                              f"have an equilibrium")
    ok = 0
    for triple in sampled_relations(rng, size, samples):
        ok += brute_has_ne(et.NormalFormGame(st, et.PreferenceProfile(triple)))
    return et.ClaimReport("short-chain-ne", ok == samples, False,
                          f"{ok}/{samples} sampled short-chain preference "
                          f"triples have an equilibrium")


BITS = et.OutcomeSet(8, tuple(f"{i:03b}" for i in range(8)))


def bit_preferences() -> et.PreferenceProfile:
    """Outcomes are triples of win bits; each player compares their own bit."""
    prefs = []
    for player in range(3):
        shift = 2 - player
        pairs = {(o, p) for o in range(8) for p in range(8)
                 if (o >> shift) & 1 == 0 and (p >> shift) & 1 == 1}
        prefs.append(et.Preference(BITS, frozenset(pairs)))
    return et.PreferenceProfile(tuple(prefs))


def bit_instantiation(st: et.GameStructure,
                      wl: tuple[int, ...]) -> et.NormalFormGame:
    """Replace outcome o by the bit triple wl[o] (coded as an index 0..7)."""
    table = np.asarray(wl, dtype=np.int64)[st.table]
    return et.NormalFormGame(et.GameStructure(st.strategy_counts, BITS, table),
                             bit_preferences())


def bit_instantiations_report(st: et.GameStructure) -> et.ClaimReport:
    """The ``bit-instantiations-have-ne`` claim, one relabelling at a time."""
    total = ok = 0
    for wl in itertools.product(range(8), repeat=3):
        total += 1
        ok += brute_has_ne(bit_instantiation(st, wl))
    return et.ClaimReport("bit-instantiations-have-ne", ok == total, True,
                          f"{ok}/{total} instantiations have an equilibrium")


def cellwise_eliminate_dominated_outcomes(g: et.NormalFormGame, e: int,
                                          o: int) -> et.NormalFormGame:
    """``eliminate_dominated_outcomes`` cell by cell: each cell's outcome
    looked up on its own, player 2's pairs from a loop over every pair of
    kept outcomes."""
    st = g.structure
    p1, p2 = g.preferences[0], g.preferences[1]
    if not (et.is_strict_linear(p1) and et.is_strict_linear(p2)):
        raise et.HypothesisViolatedError(
            "preferences must be strict linear orders")
    if not (0 <= e < st.strategy_counts[0]):
        raise et.HypothesisViolatedError(f"no player-1 strategy {e}")
    if not (0 <= o < st.outcomes.size):
        raise et.HypothesisViolatedError(f"no outcome {o}")
    for s2 in range(st.strategy_counts[1]):
        if not p1.less(o, st.outcome((e, s2))):
            raise et.HypothesisViolatedError(
                f"strategy {e} reaches outcome {st.outcome((e, s2))} "
                f"not above {o} for player 1")
    keep = sorted({o} | {x for x in range(st.outcomes.size) if p1.less(o, x)})
    remap = {old: new for new, old in enumerate(keep)}
    labels = None
    if st.outcomes.labels is not None:
        labels = tuple(st.outcomes.labels[old] for old in keep)
    new_outcomes = et.OutcomeSet(len(keep), labels)
    new_table = [[remap.get(st.outcome((i, j)), remap[o])
                  for j in range(st.strategy_counts[1])]
                 for i in range(st.strategy_counts[0])]
    new_o = remap[o]
    pairs1 = {(remap[x], remap[y]) for (x, y) in p1.pairs
              if x in remap and y in remap}
    pairs2 = set()
    for x in range(len(keep)):
        for y in range(len(keep)):
            if x == y:
                continue
            ox, oy = keep[x], keep[y]
            if x != new_o and (p2.less(ox, oy) or y == new_o):
                pairs2.add((x, y))
    prefs = et.PreferenceProfile((
        et.Preference(new_outcomes, frozenset(pairs1)),
        et.Preference(new_outcomes, frozenset(pairs2)),
    ))
    return et.NormalFormGame(
        et.GameStructure(st.strategy_counts, new_outcomes, new_table), prefs)


def cellwise_finite_height_reduce(g: et.NormalFormGame) -> et.NormalFormGame:
    """``finite_height_reduce`` cell by cell: each cell's rank pair looked
    up on its own."""
    st = g.structure
    pair_of = list(zip(et.rank(g.preferences[0]), et.rank(g.preferences[1])))
    distinct = sorted(set(pair_of))
    index = {pr: i for i, pr in enumerate(distinct)}
    outcomes = et.OutcomeSet(len(distinct),
                             tuple(f"({a},{b})" for a, b in distinct))
    table = [[index[pair_of[st.outcome((i, j))]]
              for j in range(st.strategy_counts[1])]
             for i in range(st.strategy_counts[0])]
    pairs1 = {(index[x], index[y]) for x in distinct for y in distinct
              if x[0] < y[0]}
    pairs2 = {(index[x], index[y]) for x in distinct for y in distinct
              if x[1] < y[1]}
    prefs = et.PreferenceProfile((
        et.Preference(outcomes, frozenset(pairs1)),
        et.Preference(outcomes, frozenset(pairs2)),
    ))
    return et.NormalFormGame(
        et.GameStructure(st.strategy_counts, outcomes, table), prefs)


def rowset_enforceable_finite_cone(g: et.NormalFormGame,
                                   player: int) -> Optional[set[int]]:
    """``enforceable_finite_cone`` from a Python set of each row's (player
    1) or column's (player 2) outcomes, every line scanned."""
    st = g.structure
    pref = g.preferences[player - 1]
    best: Optional[set[int]] = None
    table = st.table if player == 1 else st.table.T
    for i in range(table.shape[0]):
        cone = _upward_cone(pref, {int(o) for o in table[i]})
        if best is None or len(cone) < len(best):
            best = cone
    return best


class FullScanOracle(et.StructureOracle):
    """The brute-force oracle answering each query from a scan of every
    row, or every column, through ``brute_enforcing_strategy``: no state
    is kept between queries."""

    def winner(self, label: int) -> int:
        row = brute_enforcing_strategy(self.structure, 1, label)
        return 1 if row is not None else 2

    def strategy(self, label: int) -> et.OracleStrategy:
        row = brute_enforcing_strategy(self.structure, 1, label)
        if row is not None:
            return et.OracleStrategy(1, row)
        full = (1 << self.n_outcomes) - 1
        col = brute_enforcing_strategy(self.structure, 2, label ^ full)
        return et.OracleStrategy(2, col if col is not None else 0)
