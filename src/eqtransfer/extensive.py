"""Finite two-player extensive-form games: trees, backward induction, transfer.

Strategies are full choice functions, plain ``{node: child}`` dicts: one
child per owned internal node, including nodes the play never reaches.
Nodes are numbered by preorder traversal so strategy enumeration is
reproducible; every traversal runs on the preorder arrays without
recursion, so depth is bounded only by memory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import TooLargeError
from .normal_form import DEFAULT_PROFILE_CAP, GameStructure, Profile
from .prefs import OutcomeSet, PreferenceProfile
from .transfer import CallCounter, GameBackend, OracleStrategy, equilibrium


@dataclass(frozen=True)
class Leaf:
    outcome: int


@dataclass(frozen=True)
class Node:
    owner: int  # 1 or 2
    children: tuple[Union["Node", Leaf], ...]

    def __post_init__(self):
        if self.owner not in (1, 2):
            raise ValueError("nodes are owned by player 1 or 2")
        if not self.children:
            raise ValueError("internal nodes need at least one child")


class GameTree:
    """A finite rooted tree with owned internal nodes and outcome-bearing leaves.

    The tree is indexed once, in preorder: ``owners[i]`` is the owner of
    internal node i and ``children[i]`` its child codes, where a code k >= 0
    names internal node k and a code ~o (that is, -1 - o) a leaf with outcome
    o.  ``root_code`` codes the root the same way.  Children come after their
    parent in preorder, so a reverse sweep visits them first.
    """

    def __init__(self, root: Union[Node, Leaf], outcomes: OutcomeSet):
        self.outcomes = outcomes
        owners: list[int] = []
        kids: list[list[int]] = []
        # (subtree, (parent index, child slot) or None for the root)
        stack: list = [(root, None)]
        while stack:
            sub, slot = stack.pop()
            if isinstance(sub, Leaf):
                if not (0 <= sub.outcome < outcomes.size):
                    raise ValueError(f"leaf outcome {sub.outcome} out of range")
                code = ~sub.outcome
            else:
                code = len(kids)
                owners.append(sub.owner)
                kids.append([0] * len(sub.children))
                stack.extend((child, (code, k)) for k, child
                             in reversed(list(enumerate(sub.children))))
            if slot is None:
                self.root_code = code
            else:
                kids[slot[0]][slot[1]] = code
        self.owners = tuple(owners)
        self.children = tuple(map(tuple, kids))

    def owned_nodes(self, player: int) -> list[int]:
        """Preorder indices of the internal nodes the player owns."""
        return [i for i, owner in enumerate(self.owners) if owner == player]

    def strategy_count(self, player: int) -> int:
        count = 1
        for i in self.owned_nodes(player):
            count *= len(self.children[i])
        return count


def strategy_from_index(t: GameTree, player: int, index: int
                        ) -> dict[int, int]:
    """Decode a strategy index (mixed radix, first owned node most
    significant) into its ``{node: child}`` choices."""
    owned = t.owned_nodes(player)
    digits = [0] * len(owned)
    rest = index
    for pos in range(len(owned) - 1, -1, -1):
        rest, digits[pos] = divmod(rest, len(t.children[owned[pos]]))
    if rest:
        raise ValueError(f"strategy index {index} out of range")
    return dict(zip(owned, digits))


def strategy_to_index(t: GameTree, player: int, choice: dict[int, int]
                      ) -> int:
    index = 0
    for node in t.owned_nodes(player):
        index = index * len(t.children[node]) + choice[node]
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


def _backward_induction(t: GameTree, label: int) -> Callable[[int], int]:
    """One reverse preorder sweep; returns the winner at each node code."""
    won = [0] * len(t.owners)

    def winner(code: int) -> int:
        return won[code] if code >= 0 else 2 - (label >> ~code & 1)

    for i in range(len(won) - 1, -1, -1):
        me = t.owners[i]
        won[i] = me if any(winner(c) == me for c in t.children[i]) else 3 - me
    return winner


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
        return _backward_induction(self.tree, label)(self.tree.root_code)

    def strategy(self, label: int) -> OracleStrategy:
        """Full strategy for the root winner: at each owned node move to the
        first child they win, or to the first child where they win none."""
        t = self.tree
        winner = _backward_induction(t, label)
        champion = winner(t.root_code)
        choice = {i: next((k for k, c in enumerate(t.children[i])
                           if winner(c) == champion), 0)
                  for i in t.owned_nodes(champion)}
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
    """Nash equilibrium of the tree game via transfer with backward induction."""
    result = equilibrium(TreeOracle(t), prefs)
    return result.profile, result.counter
