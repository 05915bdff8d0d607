"""Games in normal form: structures, Nash checking, determinacy, slicing
and the brute-force transfer backend; the paper's lemma constructions
(finite cone, dominated outcomes, minimax, finite height) are internal.

The outcome function is stored as a dense row-major integer tensor whose
shape equals the strategy counts; entries are outcome indices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (DEFAULT_OUTCOME_CAP, DEFAULT_PROFILE_CAP, BadIndexError,
                     HypothesisViolatedError, NotZeroSumError, SchemaError,
                     TooLargeError)
from .prefs import (OutcomeSet, Preference, PreferenceProfile, _check_profile,
                    _Frozen, _integral, _player, _upward_cone, int_values,
                    is_strict_linear, rank)
from .transfer import CallCounter, GameBackend, OracleStrategy, equilibrium

Profile = tuple[int, ...]


class GameStructure(_Frozen):
    """A game stripped of preferences: players, strategies, outcomes, outcome map.

    A two-player structure keeps the outcome mask of each row and of each
    column once one is first asked for.  The structure is frozen."""

    def __init__(self, strategy_counts: Sequence[int], outcomes: OutcomeSet,
                 table: np.ndarray | Sequence[int]):
        counts = tuple(int_values(strategy_counts, "strategy counts"))
        if not counts or any(c < 1 for c in counts):
            raise ValueError("every player needs at least one strategy")
        if isinstance(table, (list, tuple)):  # numpy reads True as 1
            entries = table
            if table and isinstance(table[0], (list, tuple, np.ndarray)):
                entries = np.asarray(table, dtype=object).ravel().tolist()
            int_values(entries, "table entries")
        arr = np.asarray(table)
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"table entries must be 64-bit integers, got {arr.dtype}")
        arr = arr.astype(np.int64)  # a copy: the caller's array stays theirs
        if arr.ndim == 1:
            if arr.size != math.prod(counts):
                raise ValueError(f"table has {arr.size} entries, expected "
                                 f"{math.prod(counts)}")
            arr = arr.reshape(counts)
        if arr.shape != counts:
            raise ValueError(f"tensor shape {arr.shape} != strategy counts {counts}")
        if arr.size and (arr.min() < 0 or arr.max() >= outcomes.size):
            raise ValueError("tensor entry out of outcome range")
        arr.setflags(write=False)
        vars(self).update(strategy_counts=counts, outcomes=outcomes, table=arr)

    @property
    def players(self) -> int:
        return len(self.strategy_counts)

    @property
    def profile_count(self) -> int:
        return math.prod(self.strategy_counts)

    def outcome(self, profile: Sequence[int]) -> int:
        """The profile's cell; BadIndexError if the profile does not fit."""
        s = tuple(profile)
        _check_profile(s, self.strategy_counts)
        return int(self.table[s])

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """Per player-1 strategy, bit o for each outcome o its row reaches."""
        return _outcome_masks(self, self.table)

    @cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Per player-2 strategy, bit o for each outcome o its column reaches."""
        return _outcome_masks(self, self.table.T)

    def profiles(self) -> Iterator[Profile]:
        return itertools.product(*(range(c) for c in self.strategy_counts))

    def __eq__(self, other) -> bool:
        return (isinstance(other, GameStructure)
                and self.strategy_counts == other.strategy_counts
                and self.outcomes == other.outcomes
                and np.array_equal(self.table, other.table))

    def __repr__(self) -> str:
        return (f"GameStructure(players={self.players}, "
                f"strategies={self.strategy_counts}, outcomes={self.outcomes.size})")


def _two_players(st: GameStructure, what: str) -> None:
    """Refuse a structure without two players: ``what`` needs them."""
    if st.players != 2:
        raise SchemaError(f"{what} needs a two-player game, "
                          f"got {st.players} players")


def _outcome_masks(st: GameStructure, lines: np.ndarray) -> tuple[int, ...]:
    """Bit o for each outcome o on each row of ``lines``, the structure's
    table or its transpose: an OR over int64 bits up to 63 outcomes, and
    past that over an object array of Python ints, so that any count fits."""
    _two_players(st, "an outcome mask")
    if st.outcomes.size < 64:
        return tuple(np.bitwise_or.reduce(1 << lines, axis=1).tolist())
    bits = np.array([1 << o for o in range(st.outcomes.size)], dtype=object)
    return tuple(np.bitwise_or.reduce(bits[lines], axis=1).tolist())


@dataclass(frozen=True)
class NormalFormGame:
    """A game structure together with one preference per player."""

    structure: GameStructure
    preferences: PreferenceProfile

    def __post_init__(self):
        if self.preferences.players != self.structure.players:
            raise ValueError("one preference per player required")
        if self.preferences.outcomes.size != self.structure.outcomes.size:
            raise ValueError("preferences must range over the structure's outcomes")

    def backend(self) -> StructureOracle:
        """The transfer's backend: the brute-force oracle over the table."""
        return StructureOracle(self.structure)


def _words(masks: Sequence[int], n: int) -> list[np.ndarray]:
    """Bit masks over n outcomes cut into 64-bit words: word w holds bits
    64w..64w+63 of every mask."""
    if n <= 64:
        return [np.array(masks, dtype=np.uint64)]
    return [np.array([m >> k & 0xFFFF_FFFF_FFFF_FFFF for m in masks],
                     dtype=np.uint64) for k in range(0, n, 64)]


def _deviation_lines(table: np.ndarray, n: int,
                     players: int) -> list[list[np.ndarray]]:
    """Per player (the last ``players`` axes of the table) and per word, the
    outcomes on each cell's line along that player's axis with the cell
    itself left out: what the player reaches by deviating alone.  Leaving
    the cell out keeps a self-pair (o, o) from blocking an equilibrium."""
    reach = [w[table] for w in _words([1 << o for o in range(n)], n)]
    lines = []
    for axis in range(table.ndim - players, table.ndim):
        lines.append([])
        for r in (np.moveaxis(w, axis, 0) for w in reach):
            before = np.bitwise_or.accumulate(r)
            after = np.bitwise_or.accumulate(r[::-1])[::-1]
            line = np.zeros_like(r)
            line[1:] = before[:-1]
            line[:-1] |= after[1:]
            lines[-1].append(np.moveaxis(line, 0, axis))
    return lines


def _ne_mask(table: np.ndarray, lines: Sequence[Sequence[np.ndarray]],
             betters: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """True where ``better[table] & line == 0`` for every player and word:
    no unilateral deviation reaches a strictly better outcome."""
    hit = np.zeros(table.shape, dtype=np.uint64)
    for line, better in zip(lines, betters):
        for lw, bw in zip(line, better):
            hit |= bw[table] & lw
    return hit == 0


def is_nash_equilibrium(g: NormalFormGame, s: Profile) -> bool:
    """No player can unilaterally reach a strictly preferred outcome.

    The kernel's deviation lines at the one profile s, the profile's own
    cell left out, against the better mask of the profile's outcome.  A
    profile that does not fit the game raises BadIndexError."""
    st, s = g.structure, tuple(s)
    base = st.outcome(s)
    for player, pref in enumerate(g.preferences.prefs):
        line = st.table[s[:player] + (slice(None),) + s[player + 1:]].tolist()
        del line[s[player]]
        better = pref.better_masks[base]
        if any(better >> o & 1 for o in set(line)):
            return False
    return True


def find_all_ne(g: NormalFormGame, cap: int = DEFAULT_PROFILE_CAP) -> list[Profile]:
    """All pure equilibria in lexicographic profile order."""
    st, n = g.structure, g.structure.outcomes.size
    if st.profile_count > cap:
        raise TooLargeError(f"{st.profile_count} profiles exceed cap {cap}")
    ok = _ne_mask(st.table, _deviation_lines(st.table, n, st.players),
                  [_words(p.better_masks, n) for p in g.preferences.prefs])
    return [tuple(p) for p in np.argwhere(ok).tolist()]


def _strategy_masks(st: GameStructure, player: int) -> tuple[int, ...]:
    """Player 1's row or player 2's column outcome masks."""
    _two_players(st, "enforcement")
    return st.row_masks if _player(player) == 1 else st.column_masks


def enforcing_strategy(st: GameStructure, player: int,
                       subset: int) -> Optional[int]:
    """Lowest-index strategy of the player enforcing the subset (bit o for
    outcome o), or None: the first whose row (player 1) or column (player
    2) outcome mask m has m & ~subset == 0."""
    masks = _strategy_masks(st, player)
    outside = ~subset
    return next((i for i, m in enumerate(masks) if not m & outside), None)


def is_determined(st: GameStructure, cap: int = DEFAULT_OUTCOME_CAP) -> bool:
    """Every derived win-lose game has a winning strategy.

    With outcome o as bit o, player 1 wins label L iff a row's outcome mask lies
    inside L, player 2 iff a column's misses L; so nobody wins L iff L meets
    every column and contains no row, and no L does iff the minimal columns are
    the minimal transversals of the rows (Edmonds & Fulkerson 1970; Gurvich
    1973).  The cap bounds the outcome count, as the search is exponential."""
    _two_players(st, "determinacy")
    return _undetermined(st, cap) is None


def _undetermined(st: GameStructure, cap: int) -> Optional[int]:
    """``_undetermined_label`` of the rows and columns, within the cap."""
    if st.outcomes.size > cap:
        raise TooLargeError(f"{st.outcomes.size} outcomes exceed determinacy cap {cap}")
    return _undetermined_label(st.row_masks, st.column_masks)


def _undetermined_label(rows: Sequence[int], cols: Sequence[int]) -> Optional[int]:
    """A label meeting every column mask and containing no row mask, or None,
    by depth-first search: an unmet line (a column with no outcome in, a row
    with none out) with one free outcome forces it; else the first free one
    of the unmet line with the fewest goes in the label, then out of it."""
    stack = [([0, 0], [(m, 0) for m in set(cols)] + [(m, 1) for m in set(rows)])]
    while stack:  # outcomes in the label and out of it, and the lines not met
        sides, lines = stack.pop()
        free, pick, forced, unmet = ~(sides[0] | sides[1]), None, False, []
        for m, k in lines:
            if not m & sides[k]:
                f = m & free
                if f and not f & (f - 1):  # one free outcome left
                    sides[k], free, forced = sides[k] | f, free ^ f, True
                    continue
                unmet.append((m, k))
                if pick is None or f.bit_count() < pick.bit_count():
                    pick = f  # 0 if the line has no free outcome left
        if forced:  # scan again with the forced outcomes placed
            stack.append((sides, unmet))
        elif pick is None:
            return sides[0]
        elif pick:
            o = pick & -pick
            stack += [([sides[0], sides[1] | o], unmet),
                      ([sides[0] | o, sides[1]], unmet)]
    return None


def slice_structure(st: GameStructure, player: int, strategy: int) -> GameStructure:
    """Fix one player's strategy in a three-player structure."""
    if st.players != 3:
        raise ValueError("slicing expects a three-player structure")
    if not (_integral(player) and 0 <= player < 3):
        raise BadIndexError(f"player index {player} out of range")
    if not (_integral(strategy) and 0 <= strategy < st.strategy_counts[player]):
        raise BadIndexError(f"strategy index {strategy} out of range")
    table = np.take(st.table, strategy, axis=player)
    counts = tuple(c for i, c in enumerate(st.strategy_counts) if i != player)
    return GameStructure(counts, st.outcomes, table)


def merge_players(st: GameStructure, pair: tuple[int, int]) -> GameStructure:
    """Fuse two players of a three-player structure into one super-player.

    The merged player becomes player 1 with strategies flattened row-major
    over (pair[0], pair[1]); the remaining player becomes player 2.
    """
    if st.players != 3:
        raise ValueError("merging expects a three-player structure")
    a, b = pair
    if a == b or not all(_integral(p) and 0 <= p < 3 for p in pair):
        raise BadIndexError(f"bad player pair {pair}")
    other = ({0, 1, 2} - {a, b}).pop()
    table = np.transpose(st.table, (a, b, other))
    merged = table.reshape(st.strategy_counts[a] * st.strategy_counts[b],
                           st.strategy_counts[other])
    return GameStructure(merged.shape, st.outcomes, merged)


class StructureOracle(GameBackend):
    """Brute-force oracle over a finite two-player game structure.

    On a non-determined structure some derived games have no winner; this
    oracle then reports player 2 with an arbitrary strategy, and the caller's
    equilibrium verification catches the lie.

    A row whose mask leaves the last label answered 1 fails every subset
    of it, as each of the transfer's probes is: scans for such subsets
    unlink that row from the ``_next`` chain of live rows as they pass it.
    Any other label relinks every row first.
    """

    def __init__(self, structure: GameStructure):
        _two_players(structure, "transfer")
        self.structure = structure
        self._relink()

    @property
    def n_outcomes(self) -> int:
        return self.structure.outcomes.size

    def _relink(self) -> None:
        self._won = (1 << self.n_outcomes) - 1
        # _next[i]: the live row after row i; _next[-1], the first one
        self._next = [*range(1, self.structure.strategy_counts[0] + 1), 0]

    def _first_row(self, label: int) -> Optional[int]:
        """The lowest-index row enforcing the label, or None."""
        if label & ~self._won:
            self._relink()
        masks, nxt, outside, dead = (self.structure.row_masks, self._next,
                                     ~label, ~self._won)
        prev = end = len(nxt) - 1
        i = nxt[end]
        while i != end:
            m = masks[i]
            if m & dead:
                i = nxt[prev] = nxt[i]
            elif m & outside:
                prev, i = i, nxt[i]
            else:
                self._won = label
                return i
        return None

    def winner(self, label: int) -> int:
        return 1 if self._first_row(label) is not None else 2

    def strategy(self, label: int) -> OracleStrategy:
        row = self._first_row(label)
        if row is not None:
            return OracleStrategy(1, row)
        full = (1 << self.n_outcomes) - 1
        col = enforcing_strategy(self.structure, 2, label ^ full)
        return OracleStrategy(2, col if col is not None else 0)

    def play_outcome(self, h1: int, h2: int) -> int:
        return int(self.structure.table[h1, h2])  # the oracle's own handles

    def better_deviation(self, fixed: int, deviator: int,
                         better: int) -> Optional[int]:
        table = self.structure.table
        line = table[:, fixed] if deviator == 1 else table[fixed]
        return next((o for o in line.tolist() if better >> o & 1), None)


def transfer_equilibrium(g: NormalFormGame) -> tuple[Profile, CallCounter]:
    """``equilibrium(g)``'s profile and call counts."""
    result = equilibrium(g)
    return result.profile, result.counter


def _enforceable_finite_cone(g: NormalFormGame, player: int) -> Optional[set[int]]:
    """Smallest-by-scan finite upward cone the player can enforce, or None.

    On finite games some cone always exists (the full outcome set): the
    general acyclic-preference applicability condition, which the tests check.
    Each distinct row or column outcome mask seeds one cone.
    """
    masks = dict.fromkeys(_strategy_masks(g.structure, player))
    st, pref = g.structure, g.preferences[player - 1]
    return min((_upward_cone(pref, (o for o in range(st.outcomes.size)
                                    if m >> o & 1)) for m in masks), key=len)


def _eliminate_dominated_outcomes(g: NormalFormGame, e: int, o: int) -> NormalFormGame:
    """Collapse the outcomes strictly below ``o`` for player 1, given a
    player-1 strategy ``e`` excluding all of them.

    Every Nash equilibrium of the reduced game is one of the original game.
    One lookup array relabels the table, sending every outcome below ``o``
    to ``o``, which becomes player 2's maximum.
    """
    st = g.structure
    _two_players(st, "elimination")
    p1, p2 = g.preferences[0], g.preferences[1]
    if not (is_strict_linear(p1) and is_strict_linear(p2)):
        raise HypothesisViolatedError("preferences must be strict linear orders")
    if not (0 <= e < st.strategy_counts[0]):
        raise HypothesisViolatedError(f"no player-1 strategy {e}")
    if not (0 <= o < st.outcomes.size):
        raise HypothesisViolatedError(f"no outcome {o}")
    above = p1.better_masks[o]
    low = next((x for x in st.table[e].tolist() if not above >> x & 1), None)
    if low is not None:
        raise HypothesisViolatedError(
            f"strategy {e} reaches outcome {low} not above {o} for player 1")
    keep = [x for x in range(st.outcomes.size) if x == o or above >> x & 1]
    remap = {old: new for new, old in enumerate(keep)}
    new_o = remap[o]
    lookup = np.full(st.outcomes.size, new_o, dtype=np.int64)
    lookup[keep] = np.arange(len(keep))
    labels = st.outcomes.labels
    new_outcomes = OutcomeSet(
        len(keep), None if labels is None else tuple(labels[x] for x in keep))

    def kept(pref: Preference, skip: int = -1) -> set[tuple[int, int]]:
        return {(remap[x], remap[y]) for x, y in pref.pairs
                if x in remap and y in remap and x != skip}

    pairs2 = kept(p2, o) | {(x, new_o) for x in range(len(keep)) if x != new_o}
    return _relabelled(st, lookup, new_outcomes, kept(p1), pairs2)


def _minimax_transfer(g: NormalFormGame) -> Profile:
    """Nash equilibrium of a determined game with inverse linear preferences,
    by the verified transfer: the lift-greatest enforceable set has the
    minimax outcome v as its minimum (player 1 enforces the interval from v
    up but not the one above v), so v is player 2's maximum, and the drop
    label is the interval above v, which player 2 keeps the play out of.
    All Nash equilibria share the outcome v."""
    st = g.structure
    _two_players(st, "the minimax transfer")
    p1, p2 = g.preferences[0], g.preferences[1]
    if not is_strict_linear(p1):
        raise NotZeroSumError("player 1's preference must be a strict linear order")
    if p2.pairs != p1.inverse().pairs:
        raise NotZeroSumError("player 2's preference must be the inverse of player 1's")
    return equilibrium(g).profile


def _finite_height_reduce(g: NormalFormGame) -> NormalFormGame:
    """Replace outcomes by rank pairs and preferences by coordinate comparisons.

    Any Nash equilibrium of the reduced game is one of the original game.
    A cyclic preference has no ranks: ``rank`` raises CyclicPreferenceError.
    """
    st = g.structure
    _two_players(st, "the finite-height reduction")
    pair_of = list(zip(rank(g.preferences[0]), rank(g.preferences[1])))
    distinct = sorted(set(pair_of))
    index = {pr: i for i, pr in enumerate(distinct)}
    outcomes = OutcomeSet(len(distinct),
                          tuple(f"({a},{b})" for a, b in distinct))
    lookup = np.array([index[pr] for pr in pair_of], dtype=np.int64)
    pairs1 = {(index[x], index[y]) for x in distinct for y in distinct if x[0] < y[0]}
    pairs2 = {(index[x], index[y]) for x in distinct for y in distinct if x[1] < y[1]}
    return _relabelled(st, lookup, outcomes, pairs1, pairs2)


def _relabelled(st: GameStructure, lookup: np.ndarray, outcomes: OutcomeSet,
                *pairs: set[tuple[int, int]]) -> NormalFormGame:
    """The structure with outcome x relabelled ``lookup[x]`` in ``outcomes``,
    and one preference per set of pairs over them."""
    return NormalFormGame(
        GameStructure(st.strategy_counts, outcomes, lookup[st.table]),
        PreferenceProfile(tuple(Preference(outcomes, frozenset(p)) for p in pairs)))
