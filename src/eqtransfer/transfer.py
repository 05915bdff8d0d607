"""The equilibrium-transfer algorithm and its companion reductions.

A pluggable win-lose oracle answers, for any subset of the outcomes (an int
bit mask, bit o for outcome o), which player wins the derived win-lose game
and with which strategy.  The transfer routine turns such an oracle into a
Nash equilibrium of the multi-outcome game using at most n winner queries
and 2 strategy queries; ``equilibrium`` verifies the result through any
game backend (normal form, tree, arena).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .errors import (CyclicPreferenceError, HypothesisViolatedError,
                     NotDeterminedError, NotZeroSumError)
from .normal_form import (GameStructure, NormalFormGame, Profile,
                          enforcing_strategy)
from .prefs import (OutcomeSet, Preference, PreferenceProfile, is_acyclic,
                    is_strict_linear, linear_extension, rank, upward_cone)


@dataclass(frozen=True)
class OracleStrategy:
    """A winning strategy as reported by an oracle: the winner and a handle
    that the oracle's game backend can play."""

    player: int
    handle: Any


@dataclass
class CallCounter:
    winner_calls: int = 0
    strategy_calls: int = 0


class WinLoseOracle(abc.ABC):
    """Winner and winning strategy of every win-lose game derived from one
    fixed two-player structure.  A query's label is an int mask over the
    outcomes: player 1 wins the plays whose outcome o has bit o set."""

    @property
    @abc.abstractmethod
    def n_outcomes(self) -> int:
        ...

    @abc.abstractmethod
    def winner(self, label: int) -> int:
        """1 or 2: who wins the derived game of the label."""

    @abc.abstractmethod
    def strategy(self, label: int) -> OracleStrategy:
        """A winning strategy for the winner of the derived game."""


class CountingOracle(WinLoseOracle):
    """Wrapper instrumenting the call counts of another oracle."""

    def __init__(self, inner: WinLoseOracle):
        self.inner = inner
        self.counter = CallCounter()

    @property
    def n_outcomes(self) -> int:
        return self.inner.n_outcomes

    def winner(self, label: int) -> int:
        self.counter.winner_calls += 1
        return self.inner.winner(label)

    def strategy(self, label: int) -> OracleStrategy:
        self.counter.strategy_calls += 1
        return self.inner.strategy(label)


class GameBackend(WinLoseOracle):
    """A win-lose oracle that can also play its own strategy handles in the
    multi-outcome game and search for a profitable deviation, which is all
    that verifying a transfer needs.  Outcome sets are int bit masks, as in
    the oracle's labels."""

    @abc.abstractmethod
    def play_outcome(self, h1: Any, h2: Any) -> int:
        """Outcome of the play of player 1's handle against player 2's."""

    @abc.abstractmethod
    def better_deviation(self, fixed: Any, deviator: int,
                         better: int) -> Optional[int]:
        """An outcome in the mask ``better`` that the deviator reaches
        against the fixed handle, by a search that stops at the first; else
        None."""


class StructureOracle(GameBackend):
    """Brute-force oracle over a finite two-player game structure.

    On a non-determined structure some derived games have no winner; this
    oracle then reports player 2 with an arbitrary strategy, and the caller's
    equilibrium verification catches the lie.
    """

    def __init__(self, structure: GameStructure):
        if structure.players != 2:
            raise ValueError("oracle expects a two-player structure")
        self.structure = structure

    @property
    def n_outcomes(self) -> int:
        return self.structure.outcomes.size

    def winner(self, label: int) -> int:
        return 1 if enforcing_strategy(self.structure, 1, label) is not None else 2

    def strategy(self, label: int) -> OracleStrategy:
        row = enforcing_strategy(self.structure, 1, label)
        if row is not None:
            return OracleStrategy(1, row)
        full = (1 << self.n_outcomes) - 1
        col = enforcing_strategy(self.structure, 2, label ^ full)
        return OracleStrategy(2, col if col is not None else 0)

    def play_outcome(self, h1: int, h2: int) -> int:
        return self.structure.outcome((h1, h2))

    def better_deviation(self, fixed: int, deviator: int,
                         better: int) -> Optional[int]:
        table = self.structure.table
        line = table[:, fixed] if deviator == 1 else table[fixed]
        return next((o for o in line.tolist() if better >> o & 1), None)


def max_enforceable_word(oracle: WinLoseOracle, n: int,
                         linear: Sequence[int]) -> int:
    """Lift-greatest subset player 1 can enforce, as an outcome mask, in
    exactly n winner calls.

    Starting from the full mask, outcomes are tried from the least
    linear-order position upward: outcome ``linear[k]`` is cleared whenever
    player 1 still wins without it and with every later outcome kept.
    """
    word = (1 << n) - 1
    for k in range(n):
        probe = word & ~(1 << linear[k])
        if oracle.winner(probe) == 1:
            word = probe
    return word


@dataclass(frozen=True)
class TransferResult:
    """Output of one transfer run: ``run_transfer`` returns it unverified,
    ``equilibrium`` once the profile is verified in the game."""

    strategy_1: OracleStrategy
    strategy_2: OracleStrategy
    outcome: int
    enforced: int
    counter: CallCounter

    @property
    def profile(self) -> tuple[Any, Any]:
        return (self.strategy_1.handle, self.strategy_2.handle)


def run_transfer(oracle: WinLoseOracle, prefs: PreferenceProfile) -> TransferResult:
    """Core of the transfer: compute the equilibrium pair of oracle strategies.

    The expected played outcome is the preferred-by-player-2 maximum of the
    lift-greatest enforceable set; ``equilibrium`` verifies the resulting
    profile in the game.  This is the one acyclicity check of every
    transfer: a cyclic preference raises CyclicPreferenceError.
    """
    if prefs.players != 2:
        raise ValueError("transfer works on two-player games")
    for p in prefs.prefs:
        if not is_acyclic(p):
            raise CyclicPreferenceError("transfer requires acyclic preferences")
    n = oracle.n_outcomes
    if n != prefs.outcomes.size:
        raise ValueError("oracle and preferences disagree on the outcome count")
    counting = CountingOracle(oracle)
    linear = linear_extension(prefs[0])
    enforced = max_enforceable_word(counting, n, linear)
    members = [o for o in range(n) if enforced >> o & 1]
    if not members:
        raise NotDeterminedError("oracle claims player 1 enforces the empty set")
    # the least member that player 2 prefers no member to; acyclic, so
    # some member is maximal
    above = prefs[1].better_masks
    m = next(x for x in members if not above[x] & enforced)
    # linear lists distinct outcomes: the sum of their bits is their OR
    later = sum(1 << o for o in linear[linear.index(m) + 1:])
    drop = enforced & ~(1 << m) | later
    s1 = counting.strategy(enforced)
    s2 = counting.strategy(drop)
    if s1.player != 1 or s2.player != 2:
        raise NotDeterminedError(
            "oracle answers are inconsistent with a determined structure")
    return TransferResult(s1, s2, m, enforced, counting.counter)


def equilibrium(backend: GameBackend, prefs: PreferenceProfile) -> TransferResult:
    """Transfer, then verify the profile in the backend's own game.

    Determinacy is not re-checked (that would cost 2^n oracle calls);
    NotDeterminedError is raised instead when the profile misses the promised
    outcome or a player can deviate to an outcome they strictly prefer: one
    stop-early ``better_deviation`` query per player, on the mask of the
    outcomes the player prefers to the played one, looks for such an
    outcome, and the error carries the deviator and it as a certificate.
    """
    result = run_transfer(backend, prefs)
    h1, h2 = result.profile
    played = backend.play_outcome(h1, h2)
    if played != result.outcome:
        raise NotDeterminedError(
            f"profile plays outcome {played}, transfer promised {result.outcome}")
    for deviator, fixed in ((1, h2), (2, h1)):
        better = prefs[deviator - 1].better_masks[played]
        alt = backend.better_deviation(fixed, deviator, better) if better else None
        if alt is not None:
            raise NotDeterminedError(
                f"player {deviator} can deviate to a preferred outcome {alt}",
                deviator=deviator, outcome=alt)
    return result


def transfer_equilibrium(g: NormalFormGame) -> tuple[Profile, CallCounter]:
    """Nash equilibrium of a two-player game via the brute-force oracle."""
    result = equilibrium(StructureOracle(g.structure), g.preferences)
    return result.profile, result.counter


def enforceable_finite_cone(g: NormalFormGame, player: int) -> Optional[set[int]]:
    """Smallest-by-scan finite upward cone the player can enforce, or None.

    On finite games some cone always exists (the full outcome set); exposed so
    the general acyclic-preference applicability condition can be checked
    explicitly.
    """
    st = g.structure
    pref = g.preferences[player - 1]
    n = st.outcomes.size
    best: Optional[set[int]] = None
    table = st.table if player == 1 else st.table.T
    for i in range(table.shape[0]):
        reached = {int(o) for o in table[i]}
        cone = upward_cone(pref, reached)
        if best is None or len(cone) < len(best):
            best = cone
    return best


def eliminate_dominated_outcomes(g: NormalFormGame, e: int, o: int) -> NormalFormGame:
    """Collapse the outcomes strictly below ``o`` for player 1, given a
    player-1 strategy ``e`` excluding all of them.

    Every Nash equilibrium of the reduced game is one of the original game.
    """
    st = g.structure
    if st.players != 2:
        raise ValueError("elimination works on two-player games")
    p1, p2 = g.preferences[0], g.preferences[1]
    if not (is_strict_linear(p1) and is_strict_linear(p2)):
        raise HypothesisViolatedError("preferences must be strict linear orders")
    if not (0 <= e < st.strategy_counts[0]):
        raise HypothesisViolatedError(f"no player-1 strategy {e}")
    if not (0 <= o < st.outcomes.size):
        raise HypothesisViolatedError(f"no outcome {o}")
    for s2 in range(st.strategy_counts[1]):
        if not p1.less(o, st.outcome((e, s2))):
            raise HypothesisViolatedError(
                f"strategy {e} reaches outcome {st.outcome((e, s2))} "
                f"not above {o} for player 1")
    keep = sorted({o} | {x for x in range(st.outcomes.size) if p1.less(o, x)})
    remap = {old: new for new, old in enumerate(keep)}
    labels = None
    if st.outcomes.labels is not None:
        labels = tuple(st.outcomes.labels[old] for old in keep)
    new_outcomes = OutcomeSet(len(keep), labels)
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
    prefs = PreferenceProfile((
        Preference(new_outcomes, frozenset(pairs1)),
        Preference(new_outcomes, frozenset(pairs2)),
    ))
    return NormalFormGame(GameStructure(st.strategy_counts, new_outcomes, new_table),
                          prefs)


def minimax_transfer(g: NormalFormGame) -> Profile:
    """Nash equilibrium of a determined game with inverse linear preferences,
    by the verified transfer: the lift-greatest enforceable set has the
    minimax outcome v as its minimum (player 1 enforces the interval from v
    up but not the one above v), so v is player 2's maximum, and the drop
    label is the interval above v, which player 2 keeps the play out of.
    All Nash equilibria share the outcome v."""
    st = g.structure
    if st.players != 2:
        raise ValueError("minimax transfer works on two-player games")
    p1, p2 = g.preferences[0], g.preferences[1]
    if not is_strict_linear(p1):
        raise NotZeroSumError("player 1's preference must be a strict linear order")
    if p2.pairs != p1.inverse().pairs:
        raise NotZeroSumError("player 2's preference must be the inverse of player 1's")
    return equilibrium(StructureOracle(st), g.preferences).profile


def finite_height_reduce(g: NormalFormGame) -> NormalFormGame:
    """Replace outcomes by rank pairs and preferences by coordinate comparisons.

    Any Nash equilibrium of the reduced game is one of the original game.
    A cyclic preference has no ranks: ``rank`` raises CyclicPreferenceError.
    """
    st = g.structure
    if st.players != 2:
        raise ValueError("reduction works on two-player games")
    pair_of = list(zip(rank(g.preferences[0]), rank(g.preferences[1])))
    distinct = sorted(set(pair_of))
    index = {pr: i for i, pr in enumerate(distinct)}
    outcomes = OutcomeSet(len(distinct),
                          tuple(f"({a},{b})" for a, b in distinct))
    table = [[index[pair_of[st.outcome((i, j))]]
              for j in range(st.strategy_counts[1])]
             for i in range(st.strategy_counts[0])]
    pairs1 = {(index[x], index[y]) for x in distinct for y in distinct if x[0] < y[0]}
    pairs2 = {(index[x], index[y]) for x in distinct for y in distinct if x[1] < y[1]}
    prefs = PreferenceProfile((
        Preference(outcomes, frozenset(pairs1)),
        Preference(outcomes, frozenset(pairs2)),
    ))
    return NormalFormGame(GameStructure(st.strategy_counts, outcomes, table), prefs)
