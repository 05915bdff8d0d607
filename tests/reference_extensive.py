"""Reference tree code for the tests.

The library has one tree form, ``GameTree``'s checked arrays, and loads a
nested document straight into them.  This module keeps the nested form as
objects: ``Node`` and ``Leaf``, the preorder indexer ``index_tree`` that
turns them into a ``GameTree``, and the loader that builds them from a
document before indexing them, which ``jsonio``'s one-pass walk is
compared with.  It also holds backward induction by plain recursion, which
the flat sweep is compared with, and seeded trees built as objects and as
JSON together."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Optional, Union

import eqtransfer as et
from eqtransfer import jsonio
from eqtransfer.prefs import is_int


@dataclass(frozen=True)
class Leaf:
    outcome: int


@dataclass(frozen=True)
class Node:
    owner: int  # 1 or 2
    children: tuple[Union["Node", Leaf], ...]


def index_tree(root: Union[Node, Leaf], outcomes: et.OutcomeSet
               ) -> et.GameTree:
    """The tree of nested objects, its internal nodes numbered in preorder
    by one walk without recursion."""
    owners, kids, top = [], [], []
    # (subtree, child codes of its parent); popped in preorder, so each
    # parent's codes are appended in child order
    stack: list = [(root, top)]
    while stack:
        sub, row = stack.pop()
        if isinstance(sub, Leaf):
            if not (0 <= sub.outcome < outcomes.size):
                raise ValueError(f"leaf outcome {sub.outcome} out of range")
            row.append(~sub.outcome)
            continue
        row.append(len(kids))
        owners.append(sub.owner)
        kids.append([])
        stack.extend(zip(reversed(sub.children), repeat(kids[-1])))
    return et.GameTree(owners, kids, top[0], outcomes)


OWNERS = {"a": 1, "b": 2}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise et.SchemaError(message)


def node_from_obj(obj: Any) -> Union[Node, Leaf]:
    """Check every node, parents before children, then build the nodes
    children before parents; no recursion, so depth is not limited."""
    order, stack = [], [obj]
    while stack:
        node = stack.pop()
        _require(isinstance(node, dict), "tree node must be an object")
        order.append(node)
        if "leaf" in node:
            _require(is_int(node["leaf"]), "leaf must hold an outcome index")
            continue
        owner = node.get("owner")
        _require(isinstance(owner, str) and owner in OWNERS,
                 f"node owner must be 'a' or 'b', got {owner!r}")
        children = node.get("children")
        _require(isinstance(children, list) and children,
                 "internal node needs a non-empty children list")
        stack.extend(children)
    built: dict[int, Union[Node, Leaf]] = {}  # id(JSON node) -> subtree
    for node in reversed(order):
        built[id(node)] = (Leaf(node["leaf"]) if "leaf" in node else Node(
            OWNERS[node["owner"]],
            tuple(built[id(c)] for c in node["children"])))
    return built[id(obj)]


def reference_from_obj(obj: Any):
    """``jsonio.from_obj`` on a tree document, through ``node_from_obj`` and
    ``index_tree``; any other document goes to ``jsonio.from_obj``."""
    if not (isinstance(obj, dict) and "tree" in obj):
        return jsonio.from_obj(obj)
    _require(is_int(obj.get("format")) and obj["format"] == jsonio.FORMAT,
             f"unsupported format {obj.get('format')!r}, "
             f"expected {jsonio.FORMAT}")
    try:
        outs = jsonio._outcome_set(obj.get("outcomes"))
        tree = index_tree(node_from_obj(obj.get("tree")), outs)
        if "preferences" not in obj:
            return tree
        prefs = jsonio._profile_from_obj(obj["preferences"], outs)
        _require(prefs.players == 2, "tree games take exactly two preferences")
        return tree, prefs
    except (ValueError, TypeError, OverflowError) as exc:
        raise et.SchemaError(str(exc)) from exc


def recursive_winners(t: et.GameTree, label: int) -> list[int]:
    """The winner at each internal node, by recursion from the root: the
    owner if some child is theirs, else the other player."""
    won = [0] * len(t.owners)

    def winner(code: int) -> int:
        if code < 0:
            return 1 if label >> ~code & 1 else 2
        me = t.owners[code]
        kids = [winner(c) for c in t.children[code]]
        won[code] = me if me in kids else 3 - me
        return won[code]

    winner(t.root_code)
    return won


def recursive_strategy(t: et.GameTree, label: int) -> et.OracleStrategy:
    """The root winner and, at each node they own, the first child they
    win (the first child where they win none), encoded as an index."""
    won = recursive_winners(t, label)

    def child_winner(code: int) -> int:
        return won[code] if code >= 0 else 1 if label >> ~code & 1 else 2

    root = t.root_code
    champion = won[root] if root >= 0 else child_winner(root)
    choice = {}
    for i in t.owned_nodes(champion):
        kids = [child_winner(c) for c in t.children[i]]
        choice[i] = kids.index(champion) if champion in kids else 0
    return et.OracleStrategy(champion,
                             et.strategy_to_index(t, champion, choice))


def random_tree_pair(rng: random.Random, internal: int, n_outcomes: int
                     ) -> tuple[Union[Node, Leaf], dict]:
    """A random tree with ``internal`` internal nodes of 1 to 3 children,
    as a ``Node`` and as the JSON node of the same tree: subtrees from a
    pool, leaves included, are joined under new nodes until one is left."""
    def leaf():
        o = rng.randrange(n_outcomes)
        return Leaf(o), {"leaf": o}

    pool = [leaf() for _ in range(rng.randint(1, 3))]
    for k in range(internal):
        last = k == internal - 1
        take = len(pool) if last else rng.randint(1, min(3, len(pool)))
        picked = [pool.pop(rng.randrange(len(pool))) for _ in range(take)]
        picked += [leaf() for _ in range(rng.randint(0 if picked else 1, 1))]
        owner = rng.choice("ab")
        pool.append((Node(OWNERS[owner], tuple(p[0] for p in picked)),
                     {"owner": owner, "children": [p[1] for p in picked]}))
        if not last:
            pool += [leaf() for _ in range(rng.randint(0, 2))]
    return pool[0] if internal else leaf()


def caterpillar_pair(rng: random.Random, levels: int, n_outcomes: int
                     ) -> tuple[Union[Node, Leaf], dict]:
    """A spine of ``levels`` internal nodes with random owners, each with a
    leaf on a random side of the spine, as a ``Node`` and as JSON."""
    node: tuple = (Leaf(0), {"leaf": 0})
    for _ in range(levels):
        o = rng.randrange(n_outcomes)
        kids = [(Leaf(o), {"leaf": o}), node]
        if rng.random() < 0.5:
            kids.reverse()
        owner = rng.choice("ab")
        node = (Node(OWNERS[owner], tuple(k[0] for k in kids)),
                {"owner": owner, "children": [k[1] for k in kids]})
    return node


def tree_document(tree_obj: dict, n_outcomes: int,
                  prefs: Optional[list] = None) -> dict:
    doc = {"format": 1, "tree": tree_obj, "outcomes": n_outcomes}
    if prefs is not None:
        doc["preferences"] = prefs
    return doc
