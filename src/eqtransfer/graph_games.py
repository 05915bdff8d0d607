"""Arenas, parity and Muller solvers, and multi-outcome graph-game equilibria.

Player 1 wins a parity play iff the minimum colour occurring infinitely
often is even; it is solved by Zielonka's algorithm after the self-cycle
rule.  Muller winners and finite-memory strategies both come from one run
of McNaughton's recursion on the arena.  An arena oracle reuses a solve
for any label equal on the label bits it read: no other bit steers it.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (MAX_MULLER_COLOURS, BadIndexError, NotDeterminedError,
                     SchemaError, TooLargeError)
from .prefs import OutcomeSet, PreferenceProfile, _Frozen, int_values
from .transfer import (GameBackend, OracleStrategy, TransferResult,
                       equilibrium)


class Arena(_Frozen):
    """A finite sink-free coloured graph with a vertex partition, frozen.

    It stores ``num_vertices``, ``colors``, ``succ`` and ``pred`` (each
    vertex's distinct successors and predecessors) and ``_owner_flags``,
    true where player 1 moves and false at player 2's vertices; ``owned``,
    the set of player 1's vertices, is built on first read."""

    def __init__(self, num_vertices: int, owned: Iterable[int],
                 edges: Iterable[tuple[int, int]], colors: Iterable[int]):
        (n,) = int_values([num_vertices], "arena vertex count")
        owned = frozenset(int_values(owned, "arena owned"))
        ends: list = []
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValueError(f"arena edge {edge!r} is not a pair") from None
            ends += u, v
        ends = int_values(ends, "arena edges")
        colors = tuple(int_values(colors, "arena colors"))
        if n < 1:
            raise ValueError("arena needs at least one vertex")
        if len(colors) != n:
            raise ValueError("one colour per vertex required")
        if any(not (0 <= v < n) for v in owned):
            raise ValueError("owned vertex out of range")
        succ: list[list[int]] = [[] for _ in range(n)]
        # distinct edges in first-occurrence order, in linear time
        for u, v in dict.fromkeys(zip(ends[::2], ends[1::2])):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            succ[u].append(v)
        succ = tuple(map(tuple, succ))
        pred: list[list[int]] = [[] for _ in range(n)]
        for u, out in enumerate(succ):
            if not out:
                raise ValueError(f"vertex {u} is a sink; arenas must be sink-free")
            for w in out:
                pred[w].append(u)
        vars(self).update(num_vertices=n, colors=colors, succ=succ,
                          pred=tuple(map(tuple, pred)),
                          _owner_flags=tuple(v in owned for v in range(n)))

    @functools.cached_property
    def owned(self) -> frozenset[int]:
        return frozenset(v for v, mine in enumerate(self._owner_flags) if mine)

    def owner(self, v: int) -> int:
        return 1 if self._owner_flags[v] else 2

    def color_set(self) -> frozenset[int]:
        return frozenset(self.colors)


@dataclass(frozen=True, eq=False)
class FiniteMemoryStrategy:
    """A player's strategy as a finite graph over its states.

    State ``s`` sits at arena vertex ``vertex[s]``, and ``succ[s][k]`` is the
    state reached along the k-th edge of ``arena.succ[vertex[s]]``, in the
    same order.  At the states of the player's vertices ``move[s]`` is the
    k taken, and it is -1 elsewhere.  At the player's own states only
    ``move[s]`` is followed: a Muller machine stores -1 on the other edges,
    and a positional strategy keeps the arena's successor lists.  A play
    from vertex v begins in state ``entry[v]``.  The strategy is positional
    iff no vertex has two states.
    """

    player: int
    vertex: Sequence[int]
    succ: Sequence[Sequence[int]]
    move: Sequence[int]
    entry: Union[Mapping[int, int], Sequence[int]]

    @property
    def num_states(self) -> int:
        return len(self.vertex)

    @staticmethod
    def positional(arena: Arena, player: int, moves: Mapping[int, int]
                   ) -> "FiniteMemoryStrategy":
        """One state per vertex: the arena's own successor lists, with
        ``moves`` naming the successor taken at each vertex of the player;
        a vertex it leaves out takes its first edge."""
        move = [-1] * arena.num_vertices
        for v, out in enumerate(arena.succ):
            if arena._owner_flags[v] == (player == 1):
                w = moves.get(v, out[0])
                if w not in out:
                    raise ValueError(f"strategy moves along a non-edge "
                                     f"({v}, {w})")
                move[v] = out.index(w)
        states = range(arena.num_vertices)
        return FiniteMemoryStrategy(player, states, arena.succ, move, states)


@dataclass(frozen=True)
class Play:
    """An eventually periodic play in lasso form."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]


def play_of(arena: Arena, start: int, s1: FiniteMemoryStrategy,
            s2: FiniteMemoryStrategy) -> Play:
    """Walk both strategy graphs in lockstep from their entry states at
    ``start`` until a pair of states repeats: at each vertex the owner's
    ``move`` names the edge, and both strategies follow it."""
    if s1.player != 1 or s2.player != 2:
        raise ValueError("play_of expects a player-1 and a player-2 strategy")
    _check_start(arena, start)
    pair = (_entry(s1, start), _entry(s2, start))
    seen: dict[tuple[int, int], int] = {}
    trail: list[int] = []
    while pair not in seen:
        seen[pair] = len(trail)
        a, b = pair
        v = s1.vertex[a]
        trail.append(v)
        k = s1.move[a] if arena._owner_flags[v] else s2.move[b]
        if k < 0:
            raise ValueError(f"the owner's strategy has no move at vertex {v}")
        pair = (s1.succ[a][k], s2.succ[b][k])
        w = arena.succ[v][k]
        for s, state, t in ((s1, a, pair[0]), (s2, b, pair[1])):
            if not (0 <= t < len(s.vertex) and s.vertex[t] == w):
                raise _no_successor(arena, s, state, k)
    cut = seen[pair]
    return Play(tuple(trail[:cut]), tuple(trail[cut:]))


def _no_successor(arena: Arena, strategy, s: int, k: int) -> ValueError:
    v = strategy.vertex[s]
    return ValueError(f"player {strategy.player}'s strategy has no successor "
                      f"of state {s} along edge ({v}, {arena.succ[v][k]})")


def _entry(strategy: FiniteMemoryStrategy, start: int) -> int:
    try:
        return strategy.entry[start]
    except (KeyError, IndexError):
        raise ValueError(f"player {strategy.player}'s strategy has no entry "
                         f"state at vertex {start}") from None


def _check_start(arena: Arena, start: int) -> int:
    try:
        (start,) = int_values([start], "start vertex")
    except ValueError as exc:
        raise BadIndexError(str(exc)) from None
    if not 0 <= start < arena.num_vertices:
        raise BadIndexError(f"start vertex {start} out of range "
                            f"0..{arena.num_vertices - 1}")
    return start


def _solve_graph(prep: _Prepared, start: int, colors=None
                 ) -> tuple[int, tuple[int, dict[int, int]]]:
    """Parity game on the prepared arena coloured as ``_zielonka`` reads
    ``colors``: the groups whose parity the solve read, and the winner of
    the play from ``start`` with their moves."""
    w1, _, s1, s2, read = _zielonka(prep, colors)
    return read, ((1, s1) if start in w1 else (2, s2))


# ---------------------------------------------------------------------------
# Parity: Zielonka's attractor decomposition on an arena prepared once, so
# that oracles reuse one topology for many colourings.

class _Prepared:
    """What a parity solve reads of an arena that no colouring changes: the
    arena, out-degrees, self-loop vertices, ``keys``, the distinct keys in
    order of first use, ``groups``, the vertices of each, ``slot``, each
    vertex's group, and ``looped``, a bit per group with a self-loop."""

    def __init__(self, arena: Arena, keys):
        self.arena, index = arena, {}
        self.slot = [index.setdefault(k, len(index)) for k in keys]
        self.keys, self.groups = list(index), [[] for _ in index]
        for v, g in enumerate(self.slot):
            self.groups[g].append(v)
        self.degree = [len(out) for out in arena.succ]
        self.loops = [v for v, out in enumerate(arena.succ) if v in out]
        self.looped = sum({1 << self.slot[v] for v in self.loops})


def _attractor(succ, pred, owned, region: set[int], target: set[int],
               player: int, count=None) -> tuple[set[int], dict[int, int]]:
    """Player's attractor to ``target`` inside ``region``, with the forced
    moves for the player's vertices outside the target (``owned[v]`` flags
    player 1's).  A worklist over predecessors; an opponent vertex joins
    once none of its successors in the region is left outside.  ``count``
    holds these successor counts for the region and loses one per edge read;
    None counts them as vertices are met, at a cost linear in the region."""
    mine = player == 1
    attr = set(target)
    strategy: dict[int, int] = {}
    left = {} if count is None else count
    queue = list(target)
    for w in queue:
        for v in pred[w]:
            if v in attr or v not in region:
                continue
            if owned[v] == mine:
                strategy[v] = w
            else:
                n = left[v] if count is not None else left.get(v) or sum(
                    1 for x in succ[v] if x in region)
                left[v] = n = n - 1
                if n:
                    continue
            attr.add(v)
            queue.append(v)
    return attr, strategy


def _compress(colors) -> list[int]:
    """Merge consecutive occurring priorities of equal parity.  The map is
    monotone and keeps parity, so every play keeps its winner."""
    rank: dict[int, int] = {}
    r = None
    for c in sorted(set(colors)):
        r = c % 2 if r is None else r + (c - r) % 2
        rank[c] = r
    return [rank[c] for c in colors]


def _zielonka(prep: _Prepared, colors=None):
    """Winning regions and partial positional strategies of both players,
    the vertices of the g-th key in ``prep.keys`` coloured ``colors[g]``,
    or the key itself where ``colors`` is None, and a bit per group whose
    parity the solve read.

    First the self-cycle rule (Friedmann & Lange 2009): a self-loop bad for
    its owner is cut where its vertex has another edge; player 1's
    attractor to its vertices with a good self-loop, then player 2's in the
    rest, are won, and each player can leave the rest only into a loss.
    On the rest, each frame of the explicit stack is one call of Zielonka's.
    The frames share ``region``: a frame removes an attractor from it before
    its child runs and puts it back when the child returns.  The first 16
    frames on the stack whose region is a quarter of the arena or more keep
    each vertex's count of successors in the region (with a copy for their
    second attractor) and read the least priority off the colour groups;
    smaller frames scan their region, and memory stays linear in the arena.
    The self-cycle rule reads the parity of each self-loop vertex's group,
    a frame those of its least rank's groups and of the next rank's least
    colour, which ends the run; no other step reads the colouring, so
    colourings that agree there give the same regions and moves.
    """
    given, read = colors or prep.keys, 0  # read: the ranks frames took
    ranks = _compress(given)
    colors = list(map(ranks.__getitem__, prep.slot))
    ranked: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
    for r, members in zip(ranks, prep.groups):
        ranked[r] += members
    succ, pred, owned = (list(prep.arena.succ), prep.arena.pred,
                          prep.arena._owner_flags)
    count = prep.degree[:]  # per solve, bad self-loops cut; pred keeps them,
    # as an attractor reaches v in pred[v] only after v has joined it
    good: list[set[int]] = [set(), set()]  # self-loops good for player i+1
    for v in prep.loops:
        i = int(not owned[v])
        if colors[v] % 2 == i:
            good[i].add(v)
        elif count[v] > 1:
            succ[v] = [w for w in succ[v] if w != v]
            count[v] -= 1
    region = set(range(len(succ)))
    attract = functools.partial(_attractor, succ, pred, owned, region)
    won = [set(), set(), {}, {}]  # regions and moves settled by good loops
    for i, loops in enumerate(good, 1):
        loops &= region
        attr, moves = attract(loops, i, count)
        won[i - 1], won[i + 1] = attr, {**moves, **dict(zip(loops, loops))}
        region -= attr
    # [player, attractor, moves, opponent's attractor, moves, counts copy]
    frames: list[list] = []
    result = None
    while True:
        if result is None:
            if region:
                saved = None
                if 4 * len(region) >= len(succ) and len(frames) < 16:
                    saved = count[:]
                    p = next(r for r, vs in enumerate(ranked)
                             if not region.isdisjoint(vs))
                    target = region.intersection(ranked[p])
                else:
                    p = min(colors[v] for v in region)
                    target = {v for v in region if colors[v] == p}
                i, read = 1 + p % 2, read | 1 << p
                attr, astrat = attract(target, i, saved and count)
                for v in target:
                    if owned[v] == (i == 1):
                        astrat[v] = (w if (w := succ[v][0]) in region else
                                     next(w for w in succ[v] if w in region))
                region -= attr
                frames.append([i, attr, astrat, None, None, saved])
                continue
            result = (set(), set(), {}, {})
        if not frames:
            seen = (1 << len(ranks)) - 1  # every group, if each has a loop
            if prep.looped != seen:
                least = dict(sorted(zip(ranks, given), reverse=True))
                seen = prep.looped | sum(1 << g for g, (c, r) in enumerate(
                    zip(given, ranks)) if read >> r & 1
                    or c == least[r] and read << 1 >> r & 1)
            return (*(r | w for r, w in zip(result, won)), seen)
        i, attr, astrat, battr, so, saved = frames[-1]
        w1, w2, s1, s2 = result
        if battr is None:
            region |= attr
            wo, so, si = (w2, s2, s1) if i == 1 else (w1, s1, s2)
            if wo:  # the counts of the region again; a parent restores its own
                count = saved or count
                battr, bstrat = attract(wo, 3 - i, saved and count)
                so |= bstrat
                frames[-1][3:5] = [battr, so]
                region -= battr
                result = None
                continue
            si |= astrat
            result = ((set(region), set(), si, {}) if i == 1
                      else (set(), set(region), {}, si))
        else:
            region |= battr
            so |= s2 if i == 1 else s1
            result = ((w1, w2 | battr, s1, so) if i == 1
                      else (w1 | battr, w2, so, s2))
        frames.pop()


def parity_regions(arena: Arena) -> tuple[set[int], set[int],
                                          dict[int, int], dict[int, int]]:
    """Winning regions and positional winning strategies for both players."""
    return _zielonka(_Prepared(arena, arena.colors))[:4]


def solve_parity(arena: Arena, start: int) -> tuple[int, FiniteMemoryStrategy]:
    """Winner from ``start`` plus a positional winning strategy for them."""
    _check_start(arena, start)
    _, (winner, moves) = _solve_graph(_Prepared(arena, arena.colors), start)
    return winner, FiniteMemoryStrategy.positional(arena, winner, moves)


# ---------------------------------------------------------------------------
# Muller: McNaughton's recursion on the arena, each player's winning region
# cut into pieces that carry a finite-memory strategy.


def _mcnaughton(arena: Arena, vbits, wins, start: int):
    """McNaughton's algorithm as Zielonka (1998) states it, on what
    ``start`` reaches (``vbits[v]`` is v's colour bit; ``wins(K)`` is 1 iff
    player 1 wins cluster set K).  Returns the winner and each player's
    region as ordered pieces ``(piece, moves, core, children)``, ``moves``
    attracting to the core.  Where player i wins the colours K of a
    subgame, each child D is a maximal subset of K the opponent wins, and G
    the subgame without i's attractor (``moves``) to the colours outside
    D.  If the opponent wins some X in G, their attractor to X is their
    piece, with core X and child ``(-1, {}, X, their pieces in G)``, and
    the rest is solved again; else i wins it all, with children ``(D,
    moves, G, i's pieces in G)``.  An opponent leaves a piece only into an
    earlier piece of the player.  More than MAX_MULLER_COLOURS colours
    reachable from ``start`` raise TooLargeError."""
    succ, pred, owned = arena.succ, arena.pred, arena._owner_flags

    @functools.cache
    def split(k: int) -> tuple[int, list[int]]:
        won = wins(k)
        subsets, d = [], (k - 1) & k  # K's proper subsets, descending
        while d:
            subsets.append(d)
            d = (d - 1) & k
        children: list[int] = []
        for d in sorted(subsets, key=int.bit_count, reverse=True):
            if wins(d) != won and all(d & ~e for e in children):
                children.append(d)
        return 2 - won, children

    def solve(region: set[int]) -> tuple[list, list]:
        pieces: tuple[list, list] = ([], [])
        while region:
            # distinct bits: the sum is their OR
            i, children = split(sum({vbits[v] for v in region}))
            counter = []
            for d in children:
                attr, moves = _attractor(succ, pred, owned, region, {
                    v for v in region if vbits[v] & ~d}, i)
                sub = solve(g := region - attr)
                lost = set().union(*(p[0] for p in sub[2 - i]))
                if lost:
                    piece, moves = _attractor(succ, pred, owned, region,
                                              lost, 3 - i)
                    pieces[2 - i].append(
                        (piece, moves, lost, [(-1, {}, lost, sub[2 - i])]))
                    region = region - piece
                    break
                counter.append((d, moves, g, sub[i - 1]))
            else:
                pieces[i - 1].append((region, {}, region, counter))
                break
        return pieces

    region = set(_reachable(succ, start))
    if len({vbits[v] for v in region}) > MAX_MULLER_COLOURS:
        raise TooLargeError(f"more than {MAX_MULLER_COLOURS} colours "
                            "reachable from the start of a Muller game")
    pieces = solve(region)
    return 1 if any(start in p[0] for p in pieces[0]) else 2, pieces


def _muller_machine(arena: Arena, vbits, start: int, player: int,
                    pieces) -> FiniteMemoryStrategy:
    """The player's strategy on their ``_mcnaughton`` pieces.  Its memory
    is the piece and, in the core, a counter j over the children that moves
    on when play enters a colour outside D_j.  In G_j the child's pieces
    play, with memory from when play entered G_j; elsewhere the child's
    moves attract to those colours, or any edge that stays in the core
    does.  Moving to another, earlier, piece resets the memory.  States are
    the (vertex, memory) pairs reached along the opponent's edges and the
    chosen ones, merged where their futures agree (Moore's refinement);
    the player's other edges store -1, as no play follows them."""
    succ = arena.succ

    def enter(pieces, v, mem=None):
        """Memory on entering v, after ``mem`` in the same pieces."""
        k, cm = mem or (None, None)
        if k is None or v not in pieces[k][0]:
            k, cm = next(k for k, p in enumerate(pieces) if v in p[0]), None
        _, _, core, children = pieces[k]
        if v not in core or not children:
            return k, None if v not in core else ()
        j, sm = cm or (0, None)
        if cm and vbits[v] & ~children[j][0]:
            j, sm = (j + 1) % len(children), None
        g, sub = children[j][2:]
        return k, (j, enter(sub, v, sm) if v in g else None)

    def choose(pieces, mem, v):
        k, cm = mem
        _, moves, core, children = pieces[k]
        if cm:
            _, moves, _, sub = children[cm[0]]
            if cm[1] is not None:
                return choose(sub, cm[1], v)
        return moves[v] if v in moves else next(w for w in succ[v]
                                                if w in core)

    index = {(start, enter(pieces, start)): 0}
    nodes = list(index)
    out, move = [], []
    for v, mem in nodes:  # grows while it is read
        edges = [-1] * len(succ[v])
        k = (succ[v].index(choose(pieces, mem, v))
             if arena.owner(v) == player else -1)
        for e in (k,) if k >= 0 else range(len(edges)):
            node = (succ[v][e], enter(pieces, succ[v][e], mem))
            edges[e] = index.setdefault(node, len(nodes))
            if edges[e] == len(nodes):
                nodes.append(node)
        out.append(edges)
        move.append(k)
    ids: dict = {}  # blocks numbered by first state: state 0 stays first
    block = [ids.setdefault(vk, len(ids))
             for vk in zip((v for v, _ in nodes), move)]
    count = 0
    while count < len(ids) < len(nodes):
        count, ids = len(ids), {}
        block = [ids.setdefault((b, *(block[t] for t in edges if t >= 0)),
                                len(ids))
                 for b, edges in zip(block, out)]
    keep = list({b: s for s, b in enumerate(block)}.values())
    return FiniteMemoryStrategy(
        player, [nodes[s][0] for s in keep],
        [[t if t < 0 else block[t] for t in out[s]] for s in keep],
        [move[s] for s in keep], {start: 0})


def _color_bits(arena: Arena) -> tuple[dict[int, int], list[int]]:
    """Each colour's bit (bit i for the i-th smallest) and each vertex's."""
    bit = {c: 1 << i for i, c in enumerate(sorted(arena.color_set()))}
    return bit, [bit[c] for c in arena.colors]


def solve_muller(arena: Arena, start: int,
                 win_sets: Optional[Iterable[Iterable[int]]]
                 ) -> tuple[int, FiniteMemoryStrategy]:
    """Winner (player 1 wins iff the cluster set is a winning set) and a
    finite-memory winning strategy for plays from ``start``, from
    McNaughton's recursion on the arena.  ``win_sets`` None (none given)
    raises SchemaError."""
    _check_start(arena, start)
    if win_sets is None:
        raise SchemaError("a Muller game needs win_sets, a list of colour "
                          "lists")
    try:
        sets = [set(int_values(s, "win_sets")) for s in win_sets]
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from None
    bit, vbits = _color_bits(arena)
    wins = {sum(bit[c] for c in s) for s in sets if s <= bit.keys()}
    winner, pieces = _mcnaughton(arena, vbits, lambda k: int(k in wins),
                                 start)
    return winner, _muller_machine(arena, vbits, start, winner,
                                   pieces[winner - 1])


# ---------------------------------------------------------------------------
# Multi-outcome games on arenas.

PRIORITY = "priority"
MULLER = "muller"


@dataclass(frozen=True)
class MultiOutcomeGraphGame:
    """A two-player graph game whose plays map to abstract outcomes.

    ``outcome_map`` gives each play's outcome, an index into ``outcomes``.
    Priority kind: its keys are colours, and a play's outcome is that of the
    minimum colour occurring infinitely often.  Muller kind: its keys are
    frozensets of colours, and a play's outcome is that of its cluster set.
    ``_bits`` holds each vertex's colour bit (bit i for the i-th smallest),
    ``_outcome_of`` each bit's or colour-set mask's outcome, for ``_outcome``.
    """

    arena: Arena
    start: int
    kind: str
    outcomes: OutcomeSet
    preferences: PreferenceProfile
    outcome_map: Union[dict[int, int], dict[frozenset[int], int]]

    def __post_init__(self):
        if self.kind not in (PRIORITY, MULLER):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.preferences.players != 2:
            raise ValueError("two players required")
        if self.preferences.outcomes != self.outcomes:
            raise ValueError("preferences must range over the game's outcomes")
        start = _check_start(self.arena, self.start)
        mapped, n = dict(self.outcome_map), self.outcomes.size
        for k in mapped if self.kind == MULLER else ():
            if not isinstance(k, frozenset):
                raise ValueError(f"outcome_map key {k!r} is not a colour set")
        for o in mapped.values():
            if not (type(o) is int or isinstance(o, numbers.Integral)
                    and not isinstance(o, bool)) or not 0 <= o < n:
                raise ValueError(f"mapped outcome {o!r} is not an outcome "
                                 f"index 0..{n - 1}")
        flat = [*mapped.values(), *(mapped if self.kind == PRIORITY else
                                    (c for s in mapped for c in s))]
        if int_values(flat, "outcome_map") is not flat:  # numpy integers
            mapped = {(frozenset(map(int, k)) if self.kind == MULLER
                       else int(k)): int(o) for k, o in mapped.items()}
        bit, bits = _color_bits(self.arena)
        if self.kind == PRIORITY:
            if missing := sorted(bit.keys() - mapped.keys()):
                raise ValueError(f"no outcome for colours {missing}")
            outcome_of = {b: mapped[c] for c, b in bit.items()}
        else:
            outcome_of = {sum(bit[c] for c in s): o
                          for s, o in mapped.items() if s <= bit.keys()}
            for k in range(1, 1 << len(bit)):
                if k not in outcome_of:
                    cluster = {c for c, b in bit.items() if k & b}
                    raise ValueError(f"no outcome for cluster set {cluster}")
        vars(self).update(start=start, _bits=bits, _outcome_of=outcome_of,
                          outcome_map=MappingProxyType(mapped))  # read-only

    def __reduce__(self):  # a mappingproxy does not pickle: rebuild the game
        return type(self), (self.arena, self.start, self.kind, self.outcomes,
                            self.preferences, dict(self.outcome_map))

    def _outcome(self, k: int) -> int:
        return self._outcome_of[k & -k if self.kind == PRIORITY else k]

    def outcome_of_play(self, play: Play) -> int:
        k = sum({self._bits[v] for v in play.cycle})  # distinct bits: OR
        if not k:
            raise NotDeterminedError("empty cluster set on a finite arena")
        return self._outcome(k)

    def backend(self) -> _ArenaOracle:
        """The transfer's backend: the oracle of the game's kind."""
        return (PriorityOracle if self.kind == PRIORITY else MullerOracle)(self)


class _ArenaOracle(GameBackend):
    """Queries shared by the arena oracles.  ``_solve_label`` returns a
    solve and the mask M of outcomes whose label bits it read; ``_solved``
    keeps ``(M, label & M, solve)`` while the oracle lives, and a later
    label that agrees on M gets that solve, which no other bit changes.  So
    a strategy query on a probed label costs only its machine."""

    def __init__(self, game: MultiOutcomeGraphGame):
        if game.kind != self.kind:
            raise ValueError(f"{self.kind} oracle needs a {self.kind} game")
        self.game = game
        self._solved: list[tuple[int, int, tuple]] = []
        self._used = sum({1 << o for o in game._outcome_of.values()})

    @property
    def n_outcomes(self) -> int:
        return self.game.outcomes.size

    def _solve(self, label: int) -> tuple:
        for reads, bits, solved in self._solved:
            if label & reads == bits:
                return solved
        reads, solved = self._solve_label(label)
        self._solved.append((reads, label & reads, solved))
        return solved

    def winner(self, label: int) -> int:
        return self._solve(label)[0]

    def strategy(self, label: int) -> OracleStrategy:
        winner, solution = self._solve(label)
        return OracleStrategy(winner, self._strategy(winner, solution))

    def play_outcome(self, h1, h2) -> int:
        game = self.game
        return game.outcome_of_play(play_of(game.arena, game.start, h1, h2))

    def better_deviation(self, fixed, deviator: int,
                         better: int) -> Optional[int]:
        return next(_reachable_outcomes(self.game, fixed, deviator, better),
                    None)


class PriorityOracle(_ArenaOracle):
    """Win-lose oracle for a multi-outcome priority game: a vertex of colour
    bit ``1 << i`` gets ``2*i``, or ``2*i+1`` if the label denies player 1
    its colour's outcome; Zielonka solves the arena, positionally."""

    kind = PRIORITY

    @functools.cached_property
    def _prepared(self) -> tuple[_Prepared, list[tuple[int, int]]]:
        prep = _Prepared(self.game.arena, self.game._bits)
        return prep, [(b, self.game._outcome_of[b]) for b in prep.keys]

    def _solve_label(self, label: int) -> tuple[int, tuple]:
        prep, groups = self._prepared
        read, solved = _solve_graph(prep, self.game.start, [
            2 * b.bit_length() - 1 - (label >> o & 1) for b, o in groups])
        return (self._used if read + 1 == 1 << len(groups) else  # all read
                sum({1 << o for g, (_, o) in enumerate(groups)
                     if read >> g & 1})), solved

    def _strategy(self, winner: int, moves) -> FiniteMemoryStrategy:
        return FiniteMemoryStrategy.positional(self.game.arena, winner, moves)


class MullerOracle(_ArenaOracle):
    """Win-lose oracle for a multi-outcome Muller game: one McNaughton
    recursion on the arena per label gives the winner and both players'
    pieces, and the winner's finite-memory machine is built on theirs."""

    kind = MULLER

    def _solve_label(self, label: int) -> tuple[int, tuple]:
        game, outcome_of = self.game, self.game._outcome_of
        return self._used, _mcnaughton(  # ``split`` asks about every set
            game.arena, game._bits, lambda k: label >> outcome_of[k] & 1,
            game.start)

    def _strategy(self, winner: int, pieces) -> FiniteMemoryStrategy:
        return _muller_machine(self.game.arena, self.game._bits,
                               self.game.start, winner, pieces[winner - 1])


def _residual_graph(game: MultiOutcomeGraphGame, fixed: FiniteMemoryStrategy,
                    deviator: int) -> tuple[list[int], list, list[int]]:
    """The fixed strategy's own graph on the states reachable from its
    entry state at the game's start, its states cut to the edge they
    choose; every other edge is the deviator's choice.  Returns the reached
    states breadth first, the entry state first, and the cut successor
    lists and colour bits of those states only, at their own numbers."""
    if fixed.player == deviator:
        raise ValueError("fixed player and deviator must differ")
    move, out, bits = fixed.move, fixed.succ, game._bits
    vertex = list(fixed.vertex)  # read faster than a positional range
    n, targets = len(vertex), game.arena.succ
    order, succ, mask = [_entry(fixed, game.start)], [None] * n, [0] * n
    for s in order:  # grows while it is read
        v, m = vertex[s], move[s]
        succ[s] = out[s] if m < 0 else (out[s][m],)
        mask[s], edges, k = bits[v], targets[v], m if m > 0 else 0
        for t in succ[s]:  # the edges followed: the chosen one, else all
            if not (0 <= t < n and vertex[t] == edges[k]):
                raise _no_successor(game.arena, fixed, s, k)
            k += 1
            if succ[t] is None:
                succ[t] = ()  # queued
                order.append(t)
    return order, succ, mask


def _reachable(succ, root: int) -> list[int]:
    """The nodes reachable from ``root``, breadth first."""
    seen = bytearray(len(succ))
    seen[root] = 1
    reach = [root]
    for s in reach:  # grows while it is read
        for t in succ[s]:
            if not seen[t]:
                seen[t] = 1
                reach.append(t)
    return reach


def _cyclic_sccs(succ, part, index: list[int], low: list[int]):
    """Tarjan's algorithm on the subgraph that ``part`` induces, on the
    graph's own node numbers; yields every component that holds a cycle.
    One search's calls share ``index`` and ``low``, a slot per node:
    ``index`` is -1 outside the part, 0 on its unvisited nodes, then a
    node's visit number, and -1 again once its component is done."""
    for v in part:
        index[v] = 0
    count, stack = 0, []
    for root in part:
        if index[root]:
            continue
        count = index[root] = low[root] = count + 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                i = index[w]
                if not i:
                    count = index[w] = low[w] = count + 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if 0 < i < low[v]:
                    low[v] = i
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = -1
                    if len(comp) > 1 or v in succ[v]:
                        yield comp


def _reachable_outcomes(game: MultiOutcomeGraphGame, fixed, deviator: int,
                        wanted: int):
    """Yield, once each, the outcomes in the mask ``wanted`` that the
    deviator can reach against the fixed strategy, by one nested SCC
    decomposition of the residual graph: a component with a cycle realises
    its colour set K, and every other cycle in it misses a colour of K, so
    it lies in the subgraph on K without that colour.  Muller games drop
    each colour of K in turn.  Priority games drop K's minimum and, in the
    same step, the run of K's next colours whose outcomes are not wanted,
    as a cycle whose least colour is wanted holds no colour below it: a
    stop-early query makes at most one pass over the reachable states per
    run of unwanted colours, plus one.  Colour sets are visited largest
    first, once each, on the union of the components that lead there, and
    only while a colour set inside maps to an outcome still wanted; a found
    outcome's bit is cleared."""
    reach, succ, mask = _residual_graph(game, fixed, deviator)
    index, low = [-1] * len(succ), [0] * len(succ)
    pending = {2 * max(game._bits) - 1: reach}  # every colour's bit
    while pending:
        allowed = max(pending, key=int.bit_count)
        part = pending.pop(allowed)
        if not any(wanted >> o & 1 and k & ~allowed == 0
                   for k, o in game._outcome_of.items()):
            continue
        for comp in _cyclic_sccs(succ, part, index, low):
            k = sum({mask[v] for v in comp})  # distinct bits: sum is OR
            o = game._outcome(k)
            if wanted >> o & 1:
                wanted ^= 1 << o
                yield o
            if game.kind == PRIORITY:
                rest = k & (k - 1)
                while rest and not wanted >> game._outcome(rest) & 1:
                    rest &= rest - 1
                rests = [rest]
            else:
                rests = [k ^ 1 << i for i in range(k.bit_length())
                         if k >> i & 1]
            for rest in rests:
                if rest:
                    pending.setdefault(rest, []).extend(
                        v for v in comp if mask[v] & rest)


def achievable_deviation_outcomes(game: MultiOutcomeGraphGame, fixed,
                                  deviator: int) -> set[int]:
    """Every outcome the deviator can reach against the fixed strategy.

    Exact over all (arbitrary-memory) deviations: an outcome is achievable
    iff some reachable cycle of the residual one-player graph induces it.
    """
    return set(_reachable_outcomes(game, fixed, deviator,
                                   (1 << game.outcomes.size) - 1))


def multi_outcome_ne(game: MultiOutcomeGraphGame) -> TransferResult:
    """``equilibrium(game)``: the machines ``strategy_1.handle`` and
    ``strategy_2.handle`` are positional for priority games and
    finite-memory for Muller games."""
    return equilibrium(game)
