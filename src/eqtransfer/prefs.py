"""Outcomes, preference relations, and the power-set lift.

Outcomes are dense indices ``0..n-1``; optional labels are display-only.
A preference is an arbitrary binary relation over outcome indices, where
``(x, y)`` reads "x is strictly less preferred than y".
"""

from __future__ import annotations

import heapq
import numbers
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import BadIndexError, CyclicPreferenceError


def is_int(x) -> bool:
    """An int and not a bool, which JSON's true and false decode to."""
    return type(x) is int


def _integral(x) -> bool:
    """An int or a numpy integer; not a bool, a float or a string."""
    return type(x) is int or (isinstance(x, numbers.Integral)
                              and not isinstance(x, bool))


def _player(player) -> int:
    """The player, 1 or 2; anything else raises BadIndexError."""
    if not (_integral(player) and player in (1, 2)):
        raise BadIndexError(f"player must be 1 or 2, got {player}")
    return player


def _check_profile(profile: tuple, counts: tuple[int, ...]) -> None:
    """BadIndexError unless each index is an integer below its count."""
    if len(profile) != len(counts) or not all(
            _integral(i) and 0 <= i < c for i, c in zip(profile, counts)):
        raise BadIndexError(
            f"profile {profile} does not fit strategy counts {counts}")


def int_values(values: Iterable, field: str) -> list[int]:
    """The values as ints: bools, floats and strings are refused rather
    than truncated, and numpy integers pass.  A list of plain ints is
    returned as it is; a string or a non-iterable is refused whole."""
    if type(values) is not list:
        if isinstance(values, str) or not isinstance(values, Iterable):
            raise ValueError(f"{field}: {values!r} is not a list of integers")
        values = list(values)
    if set(map(type, values)) - {int}:
        for x in values:
            if not _integral(x):
                raise ValueError(f"{field}: {x!r} is not an integer")
        values = [int(x) for x in values]
    return values


class _Frozen:
    """Fields set once, by the constructor's ``vars(self).update``: then
    assigning or deleting one raises, as on a frozen dataclass."""

    def __setattr__(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


@dataclass(frozen=True)
class OutcomeSet:
    """A finite, non-empty set of outcomes, indexed 0..size-1."""

    size: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        (size,) = int_values([self.size], "outcome count")
        object.__setattr__(self, "size", size)
        if self.size < 1:
            raise ValueError("outcome set must be non-empty")
        if self.labels is not None:
            if isinstance(self.labels, str):
                raise ValueError(f"labels given as one string {self.labels!r}")
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.size:
                raise ValueError("label count must equal size")
            if len(set(self.labels)) != self.size:
                raise ValueError("labels must be distinct")

    def label(self, index: int) -> str:
        return str(index) if self.labels is None else self.labels[index]


@dataclass(frozen=True)
class Preference:
    """A binary relation over the indices of an outcome set.

    ``pairs`` may be any iterable of two-item sequences.  One pass checks
    each pair and enters it in ``better_masks`` before the pairs become a
    frozenset, so ``(0, True)`` or ``(0, 1.0)`` cannot merge into ``(0, 1)``.
    The Kahn order is computed on first use and kept with the relation."""

    outcomes: OutcomeSet
    pairs: frozenset[tuple[int, int]]
    # Entry o has bit y for every pair (o, y): the outcomes above o.
    better_masks: tuple[int, ...] = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        n = self.outcomes.size
        masks, pairs = [0] * n, []
        for pair in self.pairs:
            try:
                x, y = pair
                if not (type(x) is int and type(y) is int):  # numpy integers
                    x, y = int_values((x, y), "preference pairs")
            except (TypeError, ValueError):
                raise ValueError(f"preference pairs: {pair!r} is not a pair "
                                 "of integers") from None
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x}, {y}) out of range for {n} "
                                 "outcomes")
            masks[x] |= 1 << y
            pairs.append((x, y))
        object.__setattr__(self, "pairs", frozenset(pairs))
        object.__setattr__(self, "better_masks", tuple(masks))

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]],
                   labels: Optional[Sequence[str]] = None) -> "Preference":
        return Preference(OutcomeSet(n, labels), pairs)

    @staticmethod
    def from_ranking(ranking: Sequence[int],
                     labels: Optional[Sequence[str]] = None) -> "Preference":
        """Strict linear order: ranking lists outcomes from least to most preferred."""
        n = len(ranking)
        pairs = {(ranking[i], ranking[j]) for i in range(n) for j in range(i + 1, n)}
        return Preference.from_pairs(n, pairs, labels)

    def less(self, x: int, y: int) -> bool:
        return (x, y) in self.pairs

    @cached_property
    def kahn_order(self) -> tuple[int, ...]:
        """``_kahn_order`` of the relation, computed once."""
        return tuple(_kahn_order(self))

    def inverse(self) -> "Preference":
        return Preference(self.outcomes, frozenset((y, x) for (x, y) in self.pairs))


@dataclass(frozen=True)
class PreferenceProfile:
    """One preference per player, all over a shared outcome set."""

    prefs: tuple[Preference, ...]

    def __post_init__(self):
        if not self.prefs:
            raise ValueError("profile must contain at least one preference")
        if any(p.outcomes != self.prefs[0].outcomes for p in self.prefs):
            raise ValueError("all preferences must share one outcome set")

    @property
    def outcomes(self) -> OutcomeSet:
        return self.prefs[0].outcomes

    @property
    def players(self) -> int:
        return len(self.prefs)

    def __getitem__(self, player: int) -> Preference:
        return self.prefs[player]


def _adjacency(p: Preference) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(p.outcomes.size)]
    for x, y in p.pairs:
        adj[x].append(y)
    return adj


def _kahn_order(p: Preference) -> list[int]:
    """Kahn's topological order, the least ready outcome first; it misses
    every outcome on or behind a cycle (self-loops included)."""
    indeg = [0] * p.outcomes.size
    adj = _adjacency(p)
    for x, y in p.pairs:
        indeg[y] += 1
    ready = [v for v, d in enumerate(indeg) if d == 0]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return out


def is_acyclic(p: Preference) -> bool:
    """True iff the directed graph of the relation has no cycle (self-loops count)."""
    return len(p.kahn_order) == p.outcomes.size


def height(p: Preference) -> Optional[int]:
    """Number of outcomes in the longest strict chain, or None when cyclic.

    An empty relation (antichain) has height 1; a single edge gives height 2.
    """
    return max(rank(p)) + 1 if is_acyclic(p) else None


def rank(p: Preference) -> tuple[int, ...]:
    """Minimal monotone ranks, by outcome: the rank of x is the longest
    chain ending at x, in edges, so x below y forces a lower rank."""
    order = p.kahn_order
    if len(order) != p.outcomes.size:
        raise CyclicPreferenceError("rank requires an acyclic preference")
    ranks = [0] * p.outcomes.size
    adj = _adjacency(p)
    for v in order:
        for w in adj[v]:
            if ranks[v] + 1 > ranks[w]:
                ranks[w] = ranks[v] + 1
    return tuple(ranks)


def linear_extension(p: Preference) -> list[int]:
    """Stable topological order: ties broken by ascending outcome index."""
    if len(p.kahn_order) != p.outcomes.size:
        raise CyclicPreferenceError("linear extension requires an acyclic preference")
    return list(p.kahn_order)


def is_strict_linear(p: Preference) -> bool:
    """True iff the relation is a strict linear order (irreflexive, transitive, total).

    An acyclic relation holds at most one pair per two distinct outcomes, so
    it is total iff it holds n(n-1)/2 pairs; and an acyclic total relation
    is transitive, as x < y < z with z < x would be a cycle.
    """
    n = p.outcomes.size
    return len(p.pairs) == n * (n - 1) // 2 and is_acyclic(p)


def _lift_less(linear: Sequence[int], a: Iterable[int], b: Iterable[int]) -> bool:
    """Power-set lift of a strict linear order, finite-linear form.

    ``linear`` lists the outcomes from least to most preferred.  A is below B
    iff they differ and the least element of the symmetric difference lies in A.
    """
    sa, diff = set(a), set(a) ^ set(b)
    position = {o: i for i, o in enumerate(linear)}
    return bool(diff) and min(diff, key=position.__getitem__) in sa


def _lift_less_existential(p: Preference, a: Iterable[int], b: Iterable[int]) -> bool:
    """Power-set lift in its general existential form, on any relation.

    A is below B iff some element of A-minus-B sits below every element of
    B-minus-A.  Only on strict linear input does this obey any order laws.
    """
    sa, sb = set(a), set(b)
    only_a = sa - sb
    only_b = sb - sa
    return any(all((x, y) in p.pairs for y in only_b) for x in only_a)


def _upward_cone(p: Preference, seeds: Iterable[int]) -> set[int]:
    """Closure of ``seeds`` under the reflexive-transitive preference relation."""
    cone = set(seeds)
    frontier = list(cone)
    adj = _adjacency(p)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in cone:
                cone.add(w)
                frontier.append(w)
    return cone
