"""The equilibrium-transfer algorithm, over an arbitrary game structure.

A pluggable win-lose oracle answers, for any subset of the outcomes (an int
bit mask, bit o for outcome o), which player wins the derived win-lose game
and with which strategy.  The transfer routine turns such an oracle into a
Nash equilibrium of the multi-outcome game using at most n winner queries
and 2 strategy queries; ``equilibrium`` verifies the result through the
backend that a game model (``normal_form``, ``extensive``, ``graph_games``)
picks with its ``backend()``, or any other; the models import this module.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .errors import CyclicPreferenceError, NotDeterminedError, SchemaError
from .prefs import PreferenceProfile, is_acyclic, linear_extension


@dataclass(frozen=True)
class OracleStrategy:
    """A winning strategy as reported by an oracle: the winner and a handle
    that the oracle's game backend can play."""

    player: int
    handle: Any


@dataclass(frozen=True)
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


def max_enforceable_word(oracle: WinLoseOracle, n: int, linear: Sequence[int]
                         ) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Lift-greatest subset player 1 can enforce, as an outcome mask, in
    exactly n winner calls, and the log of those calls: one ``(label,
    winner)`` pair each.

    Starting from the full mask, outcomes are tried from the least
    linear-order position upward: outcome ``linear[k]`` is cleared whenever
    player 1 still wins without it and with every later outcome kept.
    """
    word, probes = (1 << n) - 1, []
    for k in range(n):
        probe = word & ~(1 << linear[k])
        winner = oracle.winner(probe)
        probes.append((probe, winner))
        if winner == 1:
            word = probe
    return word, tuple(probes)


@dataclass(frozen=True)
class TransferResult:
    """Output of one transfer run: ``run_transfer`` returns it unverified,
    ``equilibrium`` once the profile is verified in the game.  ``probes``
    logs the winner queries as ``(label, winner)`` pairs; ``enforced`` and
    ``drop`` are the labels of the two strategy queries."""

    strategy_1: OracleStrategy
    strategy_2: OracleStrategy
    outcome: int
    enforced: int
    drop: int
    probes: tuple[tuple[int, int], ...]

    @property
    def counter(self) -> CallCounter:
        return CallCounter(len(self.probes), 2)

    @property
    def profile(self) -> tuple[Any, Any]:
        return (self.strategy_1.handle, self.strategy_2.handle)


def run_transfer(oracle: WinLoseOracle, prefs: PreferenceProfile) -> TransferResult:
    """Core of the transfer: compute the equilibrium pair of oracle strategies.

    The expected played outcome is the preferred-by-player-2 maximum of the
    lift-greatest enforceable set; ``equilibrium`` verifies the resulting
    profile in the game.  This is the one acyclicity check of every
    transfer: a cyclic preference raises CyclicPreferenceError, and one
    that does not fit the oracle's two-player game raises SchemaError.
    """
    n = oracle.n_outcomes
    if not isinstance(prefs, PreferenceProfile):
        raise SchemaError("transfer needs a PreferenceProfile, got "
                          f"{type(prefs).__name__}")
    if prefs.players != 2:
        raise SchemaError("transfer needs a two-player game, "
                          f"got {prefs.players} players")
    if n != prefs.outcomes.size:
        raise SchemaError(f"transfer needs preferences over the game's {n} "
                          f"outcomes, got {prefs.outcomes.size}")
    for p in prefs.prefs:
        if not is_acyclic(p):
            raise CyclicPreferenceError("transfer requires acyclic preferences")
    linear = linear_extension(prefs[0])
    enforced, probes = max_enforceable_word(oracle, n, linear)
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
    s1, s2 = oracle.strategy(enforced), oracle.strategy(drop)
    if s1.player != 1 or s2.player != 2:
        raise NotDeterminedError(
            "oracle answers are inconsistent with a determined structure")
    return TransferResult(s1, s2, m, enforced, drop, probes)


def _game_backend(game) -> tuple[GameBackend, PreferenceProfile]:
    """The backend a loaded game's model picks, and the preferences."""
    model, prefs = (game if isinstance(game, tuple) and len(game) == 2
                    else (game, getattr(game, "preferences", None)))
    if not (isinstance(prefs, PreferenceProfile) and hasattr(model, "backend")):
        raise SchemaError("input must be a game with preferences")
    return model.backend(), prefs


def equilibrium(game, prefs=None) -> TransferResult:
    """Nash equilibrium of a ``NormalFormGame``, a ``(GameTree,
    PreferenceProfile)`` pair or a ``MultiOutcomeGraphGame``, through the
    backend its model picks (anything else raises SchemaError); given
    ``prefs``, of a custom ``GameBackend``, or else of the pair ``(game,
    prefs)``: verified in the backend's game.

    Determinacy is not re-checked (that would cost 2^n oracle calls);
    NotDeterminedError is raised instead when the profile misses the promised
    outcome or ``_verify_profile`` finds a player a deviation to an outcome
    they strictly prefer, which the error carries as a certificate.
    """
    backend = game
    if prefs is None or not isinstance(game, GameBackend):
        backend, prefs = _game_backend(game if prefs is None else (game, prefs))
    result = run_transfer(backend, prefs)
    played, deviation = _verify_profile(backend, prefs, *result.profile)
    if played != result.outcome:
        raise NotDeterminedError(
            f"profile plays outcome {played}, transfer promised {result.outcome}")
    if deviation is not None:
        deviator, alt = deviation
        raise NotDeterminedError(
            f"player {deviator} can deviate to a preferred outcome {alt}",
            deviator=deviator, outcome=alt)
    return result


def _verify_profile(backend: GameBackend, prefs: PreferenceProfile, h1, h2):
    """The outcome that two handles play, and a ``(deviator, outcome)``
    certificate that they are no equilibrium, or None: one stop-early
    ``better_deviation`` per player, on the outcomes it prefers to that one."""
    played = backend.play_outcome(h1, h2)
    for deviator, fixed in ((1, h2), (2, h1)):
        better = prefs[deviator - 1].better_masks[played]
        alt = backend.better_deviation(fixed, deviator, better) if better else None
        if alt is not None:
            return played, (deviator, alt)
    return played, None
