"""Finite two-player extensive-form games: trees, backward induction, transfer.

Strategies are full choice functions, plain ``{node: child}`` dicts: one
child per owned internal node, including nodes the play never reaches.
A tree is two arrays, each node's owner and child codes, where every child
comes after its parent; strategy indices follow that numbering.  Every
traversal runs on the arrays without recursion, so depth is bounded only
by memory.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from operator import indexOf
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import DEFAULT_PROFILE_CAP, TooLargeError
from .prefs import (OutcomeSet, PreferenceProfile, _Frozen, _integral,
                    _player, int_values)
from .transfer import CallCounter, GameBackend, OracleStrategy, equilibrium

if TYPE_CHECKING:
    from .normal_form import GameStructure, Profile


class GameTree(_Frozen):
    """A finite rooted tree with owned internal nodes and outcome-bearing leaves.

    ``owners[i]`` is the owner (1 or 2) of internal node i and
    ``children[i]`` its child codes, where a code k >= 0 names internal node
    k and a code ~o (that is, -1 - o) a leaf with outcome o.  ``root_code``
    codes the root the same way: node 0, or a leaf when there is no internal
    node.  Every child comes after its parent, so a reverse sweep visits
    children first (``jsonio`` numbers nodes in preorder).  A cycle, a node
    with two parents or none, or a code out of range raises ValueError.
    The tree is frozen.
    """

    def __init__(self, owners: Sequence[int],
                 children: Sequence[Sequence[int]], root_code: int,
                 outcomes: OutcomeSet):
        owners = tuple(int_values(owners, "node owners"))
        children = tuple(map(tuple, children))
        (root_code,) = int_values([root_code], "root code")
        size, n = len(owners), outcomes.size
        codes = list(chain.from_iterable(children))
        if int_values(codes, "child codes") is not codes:  # numpy integers
            children = tuple(tuple(map(int, row)) for row in children)
        if len(children) != size:
            raise ValueError("one children list per owner is needed")
        if not set(owners) <= {1, 2}:
            raise ValueError("nodes are owned by player 1 or 2")
        if not all(children):
            raise ValueError("internal nodes need at least one child")
        if root_code != 0 if size else root_code >= 0:
            raise ValueError(f"root code {root_code} is neither node 0 nor, "
                             "in a tree with no internal node, a leaf")
        has_parent = bytearray(size)
        # the root is the one child of a node -1 before node 0
        for i, row in enumerate(((root_code,),) + children, -1):
            for k in row:
                if i < k < size and not has_parent[k]:
                    has_parent[k] = 1
                elif not -n <= k < 0:
                    raise ValueError(
                        f"leaf outcome {~k} out of range" if k < 0 else
                        f"node {k} has two parents" if i < k < size else
                        f"child code {k} of node {i} is not a node after it")
        if 0 in has_parent:
            raise ValueError(f"node {has_parent.index(0)} has no parent")
        vars(self).update(outcomes=outcomes, root_code=root_code,
                          owners=owners, children=children)

    @functools.cached_property
    def _digits(self) -> tuple[tuple, tuple]:
        """Per player: the owned nodes in order and their child counts,
        the radices of a strategy index's digits."""
        owned = [tuple(i for i, o in enumerate(self.owners) if o == player)
                 for player in (1, 2)]
        return tuple((nodes, tuple(len(self.children[i]) for i in nodes))
                     for nodes in owned)

    def owned_nodes(self, player: int) -> list[int]:
        """Preorder indices of the internal nodes the player owns."""
        return list(self._digits[_player(player) - 1][0])

    def strategy_count(self, player: int) -> int:
        return math.prod(self._digits[_player(player) - 1][1])

    def backend(self) -> TreeOracle:
        """The transfer's backend: backward induction on the tree."""
        return TreeOracle(self)


def strategy_from_index(t: GameTree, player: int, index: int
                        ) -> dict[int, int]:
    """Decode a strategy index (mixed radix, first owned node most
    significant) into its ``{node: child}`` choices."""
    owned, radices = t._digits[_player(player) - 1]
    digits = [0] * len(radices)
    rest = index
    for pos in range(len(radices) - 1, -1, -1):
        rest, digits[pos] = divmod(rest, radices[pos])
    if rest or not _integral(index):
        raise ValueError(f"strategy index {index} out of range")
    return dict(zip(owned, digits))


def strategy_to_index(t: GameTree, player: int, choice: dict[int, int]
                      ) -> int:
    index = 0
    owned, radices = t._digits[_player(player) - 1]
    for node, radix in zip(owned, radices):
        index = index * radix + choice[node]
    return index


def play_tree(t: GameTree, choice: dict[int, int]) -> int:
    """Outcome at the unique leaf reached by following ``choice``, one
    child per internal node on the way: both players' choices merged."""
    code = t.root_code
    while code >= 0:
        code = t.children[code][choice[code]]
    return ~code


def to_normal_form(t: GameTree, cap: int = DEFAULT_PROFILE_CAP) -> GameStructure:
    """Embed the tree into a two-player structure over full choice functions.

    Each internal node's outcome table over all profiles is composed from its
    children's tables, selected by the owner's digit at that node."""
    import numpy as np
    from .normal_form import GameStructure
    n1, n2 = t.strategy_count(1), t.strategy_count(2)
    if n1 * n2 > cap:
        raise TooLargeError(f"{n1 * n2} strategy profiles exceed cap {cap}")
    digit = {}
    for player, count in ((1, n1), (2, n2)):
        stride = count
        for i in t.owned_nodes(player):
            stride //= len(t.children[i])
            d = (np.arange(count) // stride) % len(t.children[i])
            digit[i] = d[:, None] if player == 1 else d[None, :]
    tables: dict[int, np.ndarray] = {}
    for i in range(len(t.owners) - 1, -1, -1):
        out = np.empty((n1, n2), dtype=np.int64)
        for k, code in enumerate(t.children[i]):
            np.copyto(out, tables.pop(code) if code >= 0 else ~code,
                      where=digit[i] == k)
        tables[i] = out
    root = t.root_code
    table = tables[root] if root >= 0 else np.full((1, 1), ~root)
    return GameStructure((n1, n2), t.outcomes, table)


# A label's binary digits, as bytes, to leaf winners: b"1" to player 1
_LEAF_WINNER = bytes.maketrans(b"01", b"\2\1")


def _backward_induction(t: GameTree, label: int) -> list[int]:
    """The winner at every node code, by one reverse sweep over the nodes: the
    list ends with the leaves' winners, outcome 0 last, so that a leaf code
    ~o indexes its outcome's winner from the end."""
    n, owners, children = t.outcomes.size, t.owners, t.children
    won = [0] * len(owners)
    won += format(label & ((1 << n) - 1), f"0{n}b").encode().translate(
        _LEAF_WINNER)
    for i in range(len(owners) - 1, -1, -1):
        me = won[i] = owners[i]
        for code in children[i]:
            if won[code] == me:
                break
        else:
            won[i] = 3 - me
    return won


class TreeOracle(GameBackend):
    """Backward-induction game backend over a game tree, linear in its size.

    Strategy handles are indices into the tree's normal-form embedding, so
    transfer results plug directly into the converted game, and
    ``strategy_from_index`` decodes one into its choices; the embedding
    itself is built only when ``structure`` is read.
    """

    def __init__(self, tree: GameTree):
        self.tree = tree

    @functools.cached_property
    def structure(self) -> GameStructure:
        return to_normal_form(self.tree)

    @property
    def n_outcomes(self) -> int:
        return self.tree.outcomes.size

    def winner(self, label: int) -> int:
        return _backward_induction(self.tree, label)[self.tree.root_code]

    def strategy(self, label: int) -> OracleStrategy:
        """Full strategy for the root winner: at each owned node move to the
        first child they win, or to the first child where they win none."""
        t = self.tree
        won = _backward_induction(t, label)
        champion = won[t.root_code]
        choice = {i: indexOf(map(won.__getitem__, t.children[i]), champion)
                  if won[i] == champion else 0
                  for i in t._digits[champion - 1][0]}
        return OracleStrategy(champion, strategy_to_index(t, champion, choice))

    def play_outcome(self, h1: int, h2: int) -> int:
        t = self.tree
        return play_tree(t, {**strategy_from_index(t, 1, h1),
                             **strategy_from_index(t, 2, h2)})

    def better_deviation(self, fixed: int, deviator: int,
                         better: int) -> Optional[int]:
        """One sweep from the root, every child at the deviator's nodes and
        the fixed strategy's choice elsewhere, up to a leaf in ``better``."""
        t = self.tree
        forced = strategy_from_index(t, 3 - deviator, fixed)
        stack = [t.root_code]
        while stack:
            code = stack.pop()
            if code < 0:
                if better >> ~code & 1:
                    return ~code
            elif t.owners[code] == deviator:
                stack.extend(t.children[code])
            else:
                stack.append(t.children[code][forced[code]])
        return None


def kuhn_via_transfer(t: GameTree, prefs: PreferenceProfile
                      ) -> tuple[Profile, CallCounter]:
    """``equilibrium((t, prefs))``'s profile and call counts."""
    result = equilibrium((t, prefs))
    return result.profile, result.counter
