"""Versioned JSON interchange for games, trees, and arenas.

Every document carries ``"format": 1``.  A tree is written flat, as the
arrays ``GameTree`` takes, so it reads back with its own numbering:
``{"owners": [...], "children": [[...], ...], "root": r}``, owners 1 or 2,
and a leaf of outcome o coded ~o = -1 - o.  The nested form, ``{"owner":
"a", "children": [...]}`` and ``{"leaf": o}`` objects, is read (numbered
in preorder) but never written.  Loaders check the JSON shape and the
fields only a document has, and raise SchemaError with a human-readable
reason; the model constructors check every value, and ``from_obj`` turns
their ValueError, TypeError or OverflowError into one; broken JSON keeps the
parser's line/column information, and a nested tree deeper than
``MAX_TREE_DEPTH`` levels raises TooLargeError, as do more than
``MAX_OUTCOMES`` outcomes (one winner query per outcome).
"""

from __future__ import annotations

import json
import sys
from itertools import repeat
from typing import TYPE_CHECKING, Any, Optional, Union

from .errors import MAX_OUTCOMES, MAX_TREE_DEPTH, SchemaError, TooLargeError
from .extensive import GameTree
from .graph_games import Arena, MultiOutcomeGraphGame
from .prefs import OutcomeSet, Preference, PreferenceProfile, is_int

if TYPE_CHECKING:
    from .normal_form import GameStructure, NormalFormGame

FORMAT = 1

# A plain arena loads as solve_parity's and solve_muller's arguments.
PlainArena = tuple[Arena, int, Optional[tuple[frozenset[int], ...]]]
Loadable = ("Union[GameStructure, NormalFormGame, GameTree, "
            "tuple[GameTree, PreferenceProfile], PlainArena, "
            "MultiOutcomeGraphGame]")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def int_list(obj: Any) -> bool:
    """A list whose every item passes ``is_int``."""
    return isinstance(obj, list) and set(map(type, obj)) <= {int}


def _outcome_set(obj: Any) -> OutcomeSet:
    count = len(obj) if isinstance(obj, list) else obj
    if is_int(count) and count > MAX_OUTCOMES:
        raise TooLargeError(f"outcome count above the cap of {MAX_OUTCOMES}")
    if is_int(obj):
        return OutcomeSet(obj)
    if isinstance(obj, list):
        _require(all(isinstance(s, str) for s in obj),
                 "outcome labels must be strings")
        return OutcomeSet(len(obj), obj)
    raise SchemaError(f"outcomes must be a count or a label list, got {obj!r}")


def _outcomes_obj(outs: OutcomeSet) -> Any:
    return list(outs.labels) if outs.labels is not None else outs.size


def _preference_from_obj(obj: Any, outs: OutcomeSet) -> Preference:
    _require(isinstance(obj, dict), "preference must be an object")
    pairs = obj.get("pairs")
    _require(isinstance(pairs, list), "preference needs a pairs list")
    return Preference(outs, pairs)


def _profile_obj(prefs: PreferenceProfile) -> list:
    return [{"pairs": sorted([x, y] for x, y in p.pairs)} for p in prefs.prefs]


def _profile_from_obj(obj: Any, outcomes: OutcomeSet) -> PreferenceProfile:
    _require(isinstance(obj, list) and obj, "preferences must be a list")
    return PreferenceProfile(tuple(
        _preference_from_obj(frag, outcomes) for frag in obj))


def _game_from_obj(obj: dict) -> Union[GameStructure, NormalFormGame]:
    from .normal_form import GameStructure, NormalFormGame
    _require(isinstance(obj["v"], list), "v must be a list of outcome indices")
    st = GameStructure(obj.get("strategies"), _outcome_set(obj.get("outcomes")),
                       obj["v"])
    players = obj.get("players", st.players)
    _require(is_int(players) and players == st.players,
             "players must match the strategy-count list length")
    if "preferences" not in obj:
        return st
    return NormalFormGame(st, _profile_from_obj(obj["preferences"],
                                                st.outcomes))


def game_to_obj(g: Union[GameStructure, NormalFormGame]) -> dict:
    from .normal_form import NormalFormGame
    st = g.structure if isinstance(g, NormalFormGame) else g
    doc = {
        "format": FORMAT,
        "players": st.players,
        "strategies": list(st.strategy_counts),
        "outcomes": _outcomes_obj(st.outcomes),
        "v": [int(x) for x in st.table.reshape(-1)],
    }
    if isinstance(g, NormalFormGame):
        doc["preferences"] = _profile_obj(g.preferences)
    return doc


_OWNER_NAMES = {"a": 1, "b": 2}


def _tree_from_obj(obj: dict) -> tuple[GameTree, Optional[PreferenceProfile]]:
    """A flat tree's arrays go to ``GameTree`` as they are; a nested tree is
    checked and numbered in one walk in preorder, without recursion,
    straight into the arrays, which the constructor checks."""
    outs = _outcome_set(obj.get("outcomes"))
    node = obj.get("tree")
    if isinstance(node, dict) and ("owners" in node or "root" in node):
        for key in ("owners", "children", "root"):
            _require(key in node, f"flat tree needs a {key!r} field")
        owners, kids = node["owners"], node["children"]
        top, stack = [node["root"]], []
    else:
        owners, kids, top = [], [], []
        # (JSON node, child codes of its parent), popped in preorder, and
        # (None, None) after a node's children; the checks are inlined,
        # since this loop runs once a node
        stack = [(node, top)]
    level = 0
    while stack:
        node, row = stack.pop()
        if row is None:
            level -= 1
            continue
        if not isinstance(node, dict):
            raise SchemaError("tree node must be an object")
        if "leaf" in node:
            o = node["leaf"]
            # ~o of a negative o would code a node; GameTree checks o < n
            if not (is_int(o) and o >= 0):
                _require(is_int(o), "leaf must hold an outcome index")
                raise SchemaError(f"leaf outcome {o} out of range")
            row.append(~o)
            continue
        owner = node.get("owner")
        if owner not in ("a", "b"):
            raise SchemaError(f"node owner must be 'a' or 'b', got {owner!r}")
        children = node.get("children")
        if not (isinstance(children, list) and children):
            raise SchemaError("internal node needs a non-empty children list")
        if level == MAX_TREE_DEPTH:
            raise TooLargeError(f"tree nested deeper than {MAX_TREE_DEPTH} "
                                "levels; the flat form has no such cap")
        level += 1
        row.append(len(kids))
        owners.append(_OWNER_NAMES[owner])
        kids.append([])
        stack.append((None, None))
        stack.extend(zip(reversed(children), repeat(kids[-1])))
    tree = GameTree(owners, kids, top[0], outs)
    prefs = None
    if "preferences" in obj:
        prefs = _profile_from_obj(obj["preferences"], outs)
        _require(prefs.players == 2, "tree games take exactly two preferences")
    return tree, prefs


def tree_to_obj(tree: GameTree,
                prefs: Optional[PreferenceProfile] = None) -> dict:
    """The flat form: ``GameTree``'s own arrays, so the tree reads back
    with its numbering."""
    doc = {"format": FORMAT,
           "tree": {"owners": list(tree.owners),
                    "children": list(map(list, tree.children)),
                    "root": tree.root_code},
           "outcomes": _outcomes_obj(tree.outcomes)}
    if prefs is not None:
        doc["preferences"] = _profile_obj(prefs)
    return doc


def _arena_from_obj(obj: dict) -> Union[PlainArena, MultiOutcomeGraphGame]:
    for key in ("vertices", "owned", "edges", "colors", "start"):
        _require(key in obj, f"arena needs a {key!r} field")
    _require(isinstance(obj["edges"], list), "edges must be a list")
    arena = Arena(obj["vertices"], obj["owned"], obj["edges"], obj["colors"])
    start = obj["start"]
    _require(is_int(start) and 0 <= start < arena.num_vertices,
             f"start vertex {start!r} out of range")
    if "kind" not in obj:
        win_sets = obj.get("win_sets")
        _require(win_sets is None or isinstance(win_sets, list)
                 and all(map(int_list, win_sets)),
                 "win_sets must be a list of colour lists")
        return arena, start, (None if win_sets is None
                              else tuple(map(frozenset, win_sets)))
    kind = obj["kind"]
    _require(kind in ("priority", "muller"), f"unknown kind {kind!r}")
    outs = _outcome_set(obj.get("outcomes"))
    prefs = _profile_from_obj(obj.get("preferences"), outs)
    r = obj.get("r")
    _require(isinstance(r, list), "r must be a list of mapping entries")
    priority = kind == "priority"
    shape = ("priority r entry must be [color, outcome]" if priority
             else "Muller r entry must be [[colors], outcome]")
    outcome_map: dict = {}
    for entry in r:
        key = entry[0] if isinstance(entry, list) and len(entry) == 2 else None
        colors = [key] if priority else key
        _require(int_list(colors), f"{shape}, got {entry!r}")
        key = key if priority else frozenset(key)
        _require(key not in outcome_map,
                 f"r maps colour{'' if priority else ' set'} {entry[0]!r} "
                 "more than once")
        outcome_map[key] = entry[1]
    return MultiOutcomeGraphGame(
        arena=arena, start=start, kind=kind, outcomes=outs,
        preferences=prefs, outcome_map=outcome_map)


def arena_to_obj(value: Union[PlainArena, MultiOutcomeGraphGame]) -> dict:
    if isinstance(value, MultiOutcomeGraphGame):
        arena, start, game = value.arena, value.start, value
    else:
        (arena, start, win_sets), game = value, None
    doc = {"format": FORMAT, "vertices": arena.num_vertices,
           "owned": sorted(arena.owned),
           "edges": [[u, v] for u, out in enumerate(arena.succ) for v in out],
           "colors": list(arena.colors), "start": start}
    if game is None:
        if win_sets is not None:
            doc["win_sets"] = [sorted(ws) for ws in win_sets]
        return doc
    doc["kind"] = game.kind
    doc["outcomes"] = _outcomes_obj(game.outcomes)
    doc["r"] = sorted([k if game.kind == "priority" else sorted(k), o]
                      for k, o in game.outcome_map.items())
    doc["preferences"] = _profile_obj(game.preferences)
    return doc


def from_obj(obj: Any) -> Loadable:
    _require(isinstance(obj, dict), "top-level JSON value must be an object")
    _require(is_int(obj.get("format")) and obj["format"] == FORMAT,
             f"unsupported format {obj.get('format')!r}, expected {FORMAT}")
    try:
        if "tree" in obj:
            tree, prefs = _tree_from_obj(obj)
            return (tree, prefs) if prefs is not None else tree
        if "vertices" in obj:
            return _arena_from_obj(obj)
        if "v" in obj:
            return _game_from_obj(obj)
    except (ValueError, TypeError, OverflowError) as exc:
        raise SchemaError(str(exc)) from exc
    raise SchemaError("document is neither a game, a tree, nor an arena")


def to_obj(value: Loadable) -> dict:
    if isinstance(value, GameTree):
        return tree_to_obj(value)
    if isinstance(value, tuple) and value and isinstance(value[0], GameTree):
        return tree_to_obj(*value)
    if isinstance(value, MultiOutcomeGraphGame) or (
            isinstance(value, tuple) and value and isinstance(value[0], Arena)):
        return arena_to_obj(value)
    from .normal_form import GameStructure, NormalFormGame
    if isinstance(value, (GameStructure, NormalFormGame)):
        return game_to_obj(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def parse(text: str) -> Any:
    """Decode JSON text, with broken or too deeply nested JSON mapped to
    SchemaError and TooLargeError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed JSON: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}") from exc
    except RecursionError as exc:
        raise TooLargeError(
            "JSON nested deeper than the parser's limit of about "
            f"{sys.getrecursionlimit()} levels") from exc
    except ValueError as exc:  # an integer literal too long to convert
        raise TooLargeError(
            "JSON number longer than the parser's limit of "
            f"{sys.get_int_max_str_digits()} digits") from exc


def loads(text: str) -> Loadable:
    return from_obj(parse(text))


def load(path: str) -> Loadable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def dumps(value: Loadable) -> str:
    return json.dumps(to_obj(value)) + "\n"


def dump(value: Loadable, path: str) -> None:
    text = dumps(value)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
