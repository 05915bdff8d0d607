"""Executable corpus of three-player counterexample games.

Each executable entry is a concrete game together with machine-checkable
claims (no equilibrium, determinacy of all slices and mergers, specific
equilibrium lists, equilibrium existence under preference families).  Claims
over preference spaces too large to enumerate are checked by seeded sampling,
and every report says whether it was proved exhaustively or sampled.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (DEFAULT_PROFILE_CAP, MAX_SAMPLES, SchemaError,
                     TooLargeError, UnknownNameError)
from .normal_form import (GameStructure, NormalFormGame, _deviation_lines,
                          _ne_mask, _words, find_all_ne, is_determined,
                          is_nash_equilibrium, merge_players, slice_structure)
from .prefs import OutcomeSet, Preference, PreferenceProfile, int_values

X, Y, Z = 0, 1, 2
XYZ = OutcomeSet(3, ("X", "Y", "Z"))
_WITNESS_CELLS = 8
# Coins (relations x position pairs) per short-chain chunk; at least 8 triples.
_CHUNK_ELEMENTS = 1024


@dataclass(frozen=True)
class ClaimReport:
    claim: str
    passed: bool
    exhaustive: bool
    detail: str


@dataclass(frozen=True)
class Claim:
    name: str
    description: str
    check: Callable[[random.Random, int], ClaimReport]


@dataclass(frozen=True)
class CorpusEntry:
    """A statement-only entry has no game and no claims."""
    name: str
    description: str
    game: Optional[NormalFormGame]
    claims: tuple[Claim, ...]

    @property
    def executable(self) -> bool:
        return self.game is not None

    @property
    def structure(self) -> Optional[GameStructure]:
        return None if self.game is None else self.game.structure


def _prefers_only(best: int) -> Preference:
    """The other two of X, Y, Z below ``best``; nothing else compared."""
    return Preference.from_pairs(
        3, [(o, best) for o in range(3) if o != best], XYZ.labels)


# ---------------------------------------------------------------------------
# The 2x2x2 game with rotating preferences.

def _rotating_game() -> NormalFormGame:
    t = np.empty((2, 2, 2), dtype=np.int64)
    l, r = 0, 1
    t[l, l, l] = t[l, r, l] = t[r, r, l] = Y
    t[r, l, l] = t[l, l, r] = t[l, r, r] = Z
    t[r, l, r] = t[r, r, r] = X
    xyz = Preference.from_ranking([X, Y, Z], XYZ.labels)
    prefs = PreferenceProfile((xyz.inverse(), xyz, xyz))
    return NormalFormGame(GameStructure((2, 2, 2), XYZ, t), prefs)


def _no_ne_claim(name: str, description: str, game: NormalFormGame) -> Claim:
    def check(rng, samples):
        nes = find_all_ne(game)
        return ClaimReport(name, not nes, True, f"{len(nes)} equilibria found")

    return Claim(name, description, check)


def _remark_5_3_claims(game: NormalFormGame) -> tuple[Claim, ...]:
    def instantiations(rng, samples):
        # outcome o becomes the triple of win bits wl[o], coded 0..7 with
        # player 1's bit highest, and each player prefers exactly the codes
        # carrying their own bit; all 512 relabellings wl form one table
        relabel = np.array(list(itertools.product(range(8), repeat=3)))
        tables = relabel[:, game.structure.table]
        betters = []
        for shift in (2, 1, 0):
            won = sum(1 << q for q in range(8) if q >> shift & 1)
            betters.append(_words([0 if o >> shift & 1 else won
                                   for o in range(8)], 8))
        ne = _ne_mask(tables, _deviation_lines(tables, 8, 3), betters)
        total = len(relabel)
        ok = int(ne.reshape(total, -1).any(axis=1).sum())
        return ClaimReport("bit-instantiations-have-ne", ok == total, True,
                           f"{ok}/{total} instantiations have an equilibrium")

    return (
        _no_ne_claim("no-ne", "the rotating-preference game has no equilibrium",
                     game),
        Claim("bit-instantiations-have-ne",
              "every win-bit relabelling of the outcomes yields a game "
              "with an equilibrium", instantiations),
    )


# ---------------------------------------------------------------------------
# The n-strategy ladder game without equilibrium.

def _ladder_game(n: int = 4) -> NormalFormGame:
    if n ** 3 > DEFAULT_PROFILE_CAP:
        raise TooLargeError(f"the ladder game with n = {n} has {n ** 3} "
                            f"profiles, above the cap of {DEFAULT_PROFILE_CAP}")
    outcomes = OutcomeSet(n + 1, tuple(str(i) for i in range(n + 1)))

    def val(a: int, b: int, c: int) -> int:  # 1-indexed strategies
        if c == n:
            if a == n:
                return 0
            if a == b:
                return a + 1
            return n
        if a == n and b == 1:
            return n
        if 1 < c < n and (a == c or b == c):
            return c
        return 1

    t = np.array([[[val(a, b, c) for c in range(1, n + 1)]
                   for b in range(1, n + 1)]
                  for a in range(1, n + 1)], dtype=np.int64)
    usual = Preference.from_ranking(range(n + 1), outcomes.labels)
    prefs = PreferenceProfile((usual.inverse(), usual, usual))
    return NormalFormGame(GameStructure((n, n, n), outcomes, t), prefs)


def _layout(size: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Each position pair i < j's j, pairs ordered by i, and where each
    i's pairs start; each outcome's bit per word, in the narrowest type."""
    low, high = np.triu_indices(size, 1)
    return high, np.searchsorted(low, np.arange(size - 1)), [
        w.astype(np.min_scalar_type(w.max()))
        for w in _words([1 << o for o in range(size)], size)]


def _relations(coins: np.ndarray, order: np.ndarray,
               layout) -> tuple[list[np.ndarray], np.ndarray]:
    """Per word of ``_words``' layout, the (rows, size) better masks of the
    relations that take position pair k of each row's ``order`` (the later
    outcome above) where ``coins[:, k]`` is set, so that each is acyclic;
    and which have a chain through all outcomes, that is, every step
    i, i + 1.  The ``layout`` is ``_layout(size)``."""
    rows, size = order.shape
    high, starts, units = layout
    words = []
    for unit in units:  # each pair's upper bit, ORed by lower position
        bits = np.take(unit[order], high, axis=1)
        np.copyto(bits, 0, where=~coins)
        bits = np.add.reduceat(bits, starts, axis=1, dtype=bits.dtype)
        masks = np.zeros(rows * size, dtype=np.uint64)
        masks[order[:, :-1] + size * np.arange(rows)[:, None]] = bits
        words.append(masks.reshape(rows, size))
    return words, coins[:, starts].all(axis=1)


def _all_short_chains(size: int) -> list[list[np.ndarray]]:
    """Every triple of relations on ``size`` outcomes without a chain
    through all of them, as one chunk of ``_short_chain_samples``; each
    relation is made from every order and set of coins."""
    coins = np.array(list(itertools.product(
        (False, True), repeat=size * (size - 1) // 2)), dtype=bool)
    orders = np.array(list(itertools.permutations(range(size))))
    (words,), tall = _relations(np.repeat(coins, len(orders), axis=0),
                                np.tile(orders, (len(coins), 1)),
                                _layout(size))
    rels = np.unique(words[~tall], axis=0)
    return [[rels[list(itertools.product(range(len(rels)), repeat=3))]]]


def _short_chain_samples(rng: random.Random, size: int, samples: int):
    """``samples`` random triples of relations without a chain through
    all ``size`` outcomes, in chunks of about _CHUNK_ELEMENTS coins: per
    word, a (triples, 3, size) array of better masks.  Each position pair
    of a random order is taken with probability 0.3, and a triple with a
    chain is drawn again, from a numpy generator seeded by ``rng`` once."""
    gen = np.random.default_rng(rng.getrandbits(64))
    layout, pairs = _layout(size), size * (size - 1) // 2
    rows = 3 * max(8, _CHUNK_ELEMENTS // (3 * pairs))
    while samples > 0:
        words, tall = _relations(gen.random((rows, pairs)) < 0.3,
                                 gen.random((rows, size)).argsort(axis=1),
                                 layout)
        keep = ~tall.reshape(-1, 3).any(axis=1)
        chunk = [w.reshape(-1, 3, size)[keep][:samples] for w in words]
        samples -= len(chunk[0])
        yield chunk


def _short_chain_claim(st: GameStructure) -> Claim:
    size = st.outcomes.size

    def unserved(chunk, outs, cells):
        """The chunk's triples that no cell serves as an equilibrium:
        ``outs`` are the cells' outcomes, ``cells`` (words, players,
        cells) their deviation lines."""
        hit = 0
        for word, lines in zip(chunk, cells):
            hit = hit | word[:, :, outs] & lines
        return hit.any(axis=1).all(axis=1)

    def check(rng, samples):
        exhaustive = size <= 3
        chunks = (_all_short_chains(size) if exhaustive else
                  _short_chain_samples(rng, size, samples))
        lines = _deviation_lines(st.table, size, st.players)
        # the last _WITNESS_CELLS equilibrium cells found: a triple that
        # one of them serves needs no pass over the table
        outs = np.zeros(0, dtype=np.intp)
        cells = np.zeros((len(lines[0]), st.players, 0), dtype=np.uint64)
        total = failed = 0
        for chunk in chunks:
            open_ = unserved(chunk, outs, cells)
            total += len(open_)
            for t in np.flatnonzero(open_):
                if not open_[t]:  # served by a cell found in this chunk
                    continue
                ne = _ne_mask(st.table, lines, [[w[t, p] for w in chunk]
                                                for p in range(st.players)])
                first = int(ne.argmax())
                if not ne.flat[first]:
                    failed += 1
                    continue
                at = np.unravel_index(first, ne.shape)
                cell = np.array([[w[at] for w in line] for line in lines],
                                dtype=np.uint64).T[:, :, None]
                outs = np.append(st.table[at], outs)[:_WITNESS_CELLS]
                cells = np.dstack([cell, cells])[:, :, :_WITNESS_CELLS]
                open_ &= unserved(chunk, outs[:1], cell)
        return ClaimReport("short-chain-ne", not failed, exhaustive,
                           f"{total - failed}/{total} "
                           f"{'' if exhaustive else 'sampled '}short-chain "
                           f"preference triples have an equilibrium")

    return Claim("short-chain-ne",
                 f"every preference triple without a {size}-outcome "
                 f"chain yields a game with an equilibrium", check)


def _prop_5_4_claims(game: NormalFormGame) -> tuple[Claim, ...]:
    n = game.structure.outcomes.size - 1

    def zero_sum(rng, samples):
        # payoffs (-2o, o, o) sum to zero and order outcomes exactly like
        # the stated preferences, so the zero-sum variant has no equilibrium
        payoffs = [(-2 * o, o, o) for o in range(n + 1)]
        balanced = all(sum(p) == 0 for p in payoffs)
        prefs = PreferenceProfile(tuple(Preference(game.structure.outcomes, {
            (o, p) for o in range(n + 1) for p in range(n + 1)
            if payoffs[o][player] < payoffs[p][player]}) for player in range(3)))
        nes = find_all_ne(NormalFormGame(game.structure, prefs))
        return ClaimReport("zero-sum-variant", balanced and not nes, True,
                           f"payoffs balanced: {balanced}; "
                           f"{len(nes)} equilibria found")

    return (
        _no_ne_claim("no-ne", "no equilibrium under the stated linear "
                     "preferences", game),
        Claim("zero-sum-variant",
              "the payoff version (-2o, o, o) is zero-sum and still has "
              "no equilibrium", zero_sum),
        _short_chain_claim(game.structure),
    )


# ---------------------------------------------------------------------------
# The 6x6x6 structure: determined slices/mergers, yet no equilibrium.

def _six_cube_game() -> NormalFormGame:
    """Under unit payoffs: player d prefers only outcome d."""
    t = np.full((6, 6, 6), -1, dtype=np.int64)
    latin_ab = {(1, 1): X, (2, 3): X, (3, 2): X,
                (1, 2): Y, (2, 1): Y, (3, 3): Y,
                (1, 3): Z, (2, 2): Z, (3, 1): Z}
    for (a, b), o in latin_ab.items():
        t[a - 1, b - 1, :] = o
    # two more Latin squares, on index pairs (4..6, 1..3) and (4..6, 4..6)
    high_low = {(4, 1): X, (5, 3): X, (6, 2): X,
                (4, 2): Y, (5, 1): Y, (6, 3): Y,
                (4, 3): Z, (5, 2): Z, (6, 1): Z}
    high_high = {(4, 4): X, (5, 6): X, (6, 5): X,
                 (4, 5): Y, (5, 4): Y, (6, 6): Y,
                 (4, 6): Z, (5, 5): Z, (6, 4): Z}
    for (b, c), o in high_low.items():
        t[:, b - 1, c - 1] = o
    for (a, c), o in high_high.items():
        t[a - 1, :, c - 1] = o
    for (a, b), o in high_low.items():
        t[a - 1, b - 1, 0:3] = o
    # the remaining low-a, high-b, high-c corner gets its own Latin cylinder
    # so that every slice stays determined and no new equilibrium appears
    for (b, c), o in high_high.items():
        t[0:3, b - 1, c - 1] = o
    assert (t >= 0).all()
    prefs = PreferenceProfile(tuple(_prefers_only(best) for best in (X, Y, Z)))
    return NormalFormGame(GameStructure((6, 6, 6), XYZ, t), prefs)


def _determinacy_claims(st: GameStructure) -> tuple[Claim, Claim]:
    def slices(rng, samples):
        bad = [(p, s) for p in range(3) for s in range(st.strategy_counts[p])
               if not is_determined(slice_structure(st, p, s))]
        total = sum(st.strategy_counts)
        return ClaimReport("slices-determined", not bad, True,
                           f"{total - len(bad)}/{total} slices determined"
                           + (f"; failing: {bad}" if bad else ""))

    def mergers(rng, samples):
        bad = [pair for pair in ((0, 1), (0, 2), (1, 2))
               if not is_determined(merge_players(st, pair))]
        return ClaimReport("mergers-determined", not bad, True,
                           f"{3 - len(bad)}/3 mergers determined"
                           + (f"; failing: {bad}" if bad else ""))

    return (
        Claim("slices-determined",
              "fixing any single player's strategy leaves a determined "
              "two-player structure", slices),
        Claim("mergers-determined",
              "fusing any two players leaves a determined two-player "
              "structure", mergers),
    )


def _prop_5_5_claims(game: NormalFormGame) -> tuple[Claim, ...]:
    return (
        _no_ne_claim("unit-vector-no-ne", "the unit-payoff instantiation has "
                     "no equilibrium", game),
    ) + _determinacy_claims(game.structure)


# ---------------------------------------------------------------------------
# The 4x7x7 structure: determined slices/mergers, equilibria only for
# short-chain preferences.

def _cuboid_game() -> NormalFormGame:
    """Under the three stated linear preferences."""
    t = np.full((4, 7, 7), -1, dtype=np.int64)
    tall_bc = {(5, 1): X, (6, 3): X, (7, 2): X,
               (5, 2): Y, (6, 1): Y, (7, 3): Y,
               (5, 3): Z, (6, 2): Z, (7, 1): Z}
    for (b, c), o in tall_bc.items():
        t[:, b - 1, c - 1] = o
    thin_ab = {(1, 1): X, (2, 2): X, (1, 3): X, (2, 4): X,
               (1, 2): Y, (2, 1): Y,
               (1, 4): Z, (2, 3): Z}
    for (a, b), o in thin_ab.items():
        t[a - 1, b - 1, :] = o
    thin_ac = {(3, 5): X, (4, 4): X,
               (3, 7): Y, (4, 6): Y,
               (3, 4): Z, (4, 5): Z, (3, 6): Z, (4, 7): Z}
    for (a, c), o in thin_ac.items():
        t[a - 1, :, c - 1] = o
    short_ab = {(3, 1): X, (4, 2): X, (3, 3): X, (4, 4): X,
                (3, 2): Y, (4, 1): Y,
                (3, 4): Z, (4, 3): Z}
    for (a, b), o in short_ab.items():
        t[a - 1, b - 1, 0:3] = o
    short_ac = {(1, 5): X, (2, 4): X,
                (1, 7): Y, (2, 6): Y,
                (1, 4): Z, (2, 5): Z, (1, 6): Z, (2, 7): Z}
    for (a, c), o in short_ac.items():
        t[a - 1, 4:7, c - 1] = o
    assert (t >= 0).all()
    prefs = PreferenceProfile((
        Preference.from_ranking([Z, Y, X], XYZ.labels),
        Preference.from_ranking([X, Z, Y], XYZ.labels),
        Preference.from_ranking([Y, X, Z], XYZ.labels),
    ))
    return NormalFormGame(GameStructure((4, 7, 7), XYZ, t), prefs)


PROP_5_6_PROOF_PREFS = PreferenceProfile((
    Preference.from_ranking([Z, Y, X], XYZ.labels),
    _prefers_only(Y),
    _prefers_only(Z),
))

# six equilibria indexed by the players' distinct preferred outcomes
PROP_5_6_NE_TABLE: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...] = (
    ((Z, X, Y), (1, 1, 1)),
    ((Z, Y, X), (1, 2, 1)),
    ((Y, X, Z), (1, 3, 1)),
    ((Y, Z, X), (1, 4, 1)),
    ((X, Y, Z), (4, 7, 7)),
    ((X, Z, Y), (4, 7, 6)),
)


def _prop_5_6_claims(game: NormalFormGame) -> tuple[Claim, ...]:
    st = game.structure

    def ne_table(rng, samples):
        bad = [profile for favourites, profile in PROP_5_6_NE_TABLE
               if not is_nash_equilibrium(NormalFormGame(st, PreferenceProfile(
                   tuple(map(_prefers_only, favourites)))),
                   tuple(s - 1 for s in profile))]
        total = len(PROP_5_6_NE_TABLE)
        return ClaimReport("ne-table", not bad, True,
                           f"{total - len(bad)}/{total} listed profiles are "
                           "equilibria" + (f"; failing: {bad}" if bad else ""))

    return (
        _no_ne_claim("statement-prefs-no-ne",
                     "no equilibrium under the three stated linear preferences",
                     game),
        _no_ne_claim("proof-prefs-no-ne",
                     "no equilibrium under the single-favourite variant for "
                     "players 2 and 3",
                     NormalFormGame(st, PROP_5_6_PROOF_PREFS)),
        Claim("ne-table",
              "each listed profile is an equilibrium when the players "
              "favour the corresponding distinct outcomes", ne_table),
    ) + _determinacy_claims(st)


# ---------------------------------------------------------------------------
# Registry.

# name: (description, game builder, claims builder), or no builders
_ENTRIES = {
    "remark_5_3": ("2x2x2 three-player game with rotating preferences: "
                   "no equilibrium, yet every win-bit relabelling has one",
                   _rotating_game, _remark_5_3_claims),
    "prop_5_4": ("n-strategy ladder game: linear preferences give no "
                 "equilibrium, short-chain preferences always do",
                 _ladder_game, _prop_5_4_claims),
    "prop_5_5": ("6x6x6 structure with all slices and mergers determined "
                 "but no equilibrium under unit payoffs",
                 _six_cube_game, _prop_5_5_claims),
    "prop_5_6": ("4x7x7 structure with determined slices and mergers, "
                 "equilibria exactly for short-chain preferences",
                 _cuboid_game, _prop_5_6_claims),
    "prop_5_1": ("statement only, not executable: infinite-strategy "
                 "two-player game without equilibrium", None, None),
    "prop_5_2": ("statement only, not executable: infinite-strategy "
                 "determinacy counterexample", None, None),
}


def _integer(value, field: str) -> int:
    """The value as an int; bools, floats and strings are refused."""
    try:
        return int_values([value], field)[0]
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def list_entries() -> list[tuple[str, str]]:
    return sorted((name, e[0]) for name, e in _ENTRIES.items())


def build(name: str, n: Optional[int] = None) -> CorpusEntry:
    """The entry of that name; only ``prop_5_4`` takes a size ``n``
    (default 4)."""
    if name not in _ENTRIES:
        raise UnknownNameError(f"unknown corpus entry {name!r}")
    description, make_game, make_claims = _ENTRIES[name]
    if n is not None:
        if make_game is not _ladder_game:
            raise SchemaError(f"corpus entry {name} takes no size n")
        n = _integer(n, "n")
        if n < 2:
            raise SchemaError(f"n must be at least 2, got {n}")
    if make_game is None:
        return CorpusEntry(name, description, None, ())
    game = make_game() if n is None else make_game(n)
    return CorpusEntry(name, description, game, make_claims(game))


def verify(entry: CorpusEntry, seed: int = 0,
           samples: int = 1000) -> list[ClaimReport]:
    """Run every claim; sampled checks draw from a generator seeded per
    claim, 1 to MAX_SAMPLES samples each."""
    samples = _integer(samples, "samples")
    if samples < 1:
        raise SchemaError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise TooLargeError(f"{samples} samples exceed the cap of "
                            f"{MAX_SAMPLES}")
    reports = []
    for i, claim in enumerate(entry.claims):
        rng = random.Random(f"{seed}:{entry.name}:{i}")
        reports.append(claim.check(rng, samples))
    return reports
