"""Arenas, parity and Muller solvers, and multi-outcome graph-game equilibria.

Player 1 wins a parity play iff the minimum colour occurring infinitely
often is even.  Muller games are solved through a latest-appearance-record
reduction to parity, which yields explicit finite-memory machines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Optional

from .errors import BadIndexError, NotDeterminedError, UnboundedHeightError
from .normal_form import SubsetWord
from .prefs import OutcomeSet, PreferenceProfile, height
from .transfer import CallCounter, GameBackend, OracleStrategy, equilibrium


class Arena:
    """A finite sink-free coloured graph with a vertex partition.

    ``owned`` lists the vertices where player 1 moves; everything else
    belongs to player 2.  ``succ`` and ``pred`` hold each vertex's distinct
    successors and predecessors.
    """

    def __init__(self, num_vertices: int, owned: Iterable[int],
                 edges: Iterable[tuple[int, int]], colors: Iterable[int]):
        self.num_vertices = int(num_vertices)
        self.owned = frozenset(int(v) for v in owned)
        self.edges = tuple((int(u), int(v)) for u, v in edges)
        self.colors = tuple(int(c) for c in colors)
        if self.num_vertices < 1:
            raise ValueError("arena needs at least one vertex")
        if len(self.colors) != self.num_vertices:
            raise ValueError("one colour per vertex required")
        if any(not (0 <= v < self.num_vertices) for v in self.owned):
            raise ValueError("owned vertex out of range")
        succ: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if v not in succ[u]:
                succ[u].append(v)
        for u, out in enumerate(succ):
            if not out:
                raise ValueError(f"vertex {u} is a sink; arenas must be sink-free")
        self.succ = tuple(tuple(s) for s in succ)
        self.pred = _predecessors(self.succ)

    def owner(self, v: int) -> int:
        return 1 if v in self.owned else 2

    def color_set(self) -> frozenset[int]:
        return frozenset(self.colors)


@dataclass(eq=True)
class PositionalStrategy:
    """History-free choice: one successor per vertex of the strategy's player."""

    player: int
    moves: dict[int, int]


class FiniteMemoryStrategy:
    """A strategy machine: memory updates on every visited vertex (including
    the start), the move depends on memory and current vertex only."""

    def __init__(self, player: int, initial: Hashable,
                 update: Callable[[Hashable, int], Hashable],
                 choice: Callable[[Hashable, int], int],
                 num_states: Optional[int] = None):
        self.player = player
        self.initial = initial
        self.update = update
        self.choice = choice
        self.num_states = num_states

    @staticmethod
    def from_positional(pos: PositionalStrategy) -> "FiniteMemoryStrategy":
        return FiniteMemoryStrategy(
            pos.player, 0, lambda m, v: 0,
            lambda m, v: pos.moves[v], num_states=1)

    @staticmethod
    def from_tables(player: int, n_states: int, initial: int,
                    update_table: Mapping[tuple[int, int], int],
                    choice_table: Mapping[tuple[int, int], int]
                    ) -> "FiniteMemoryStrategy":
        return FiniteMemoryStrategy(
            player, initial,
            lambda m, v: update_table[(m, v)],
            lambda m, v: choice_table[(m, v)],
            num_states=n_states)


def as_finite_memory(s) -> FiniteMemoryStrategy:
    if isinstance(s, FiniteMemoryStrategy):
        return s
    if isinstance(s, PositionalStrategy):
        return FiniteMemoryStrategy.from_positional(s)
    raise TypeError(f"not a strategy: {s!r}")


@dataclass(frozen=True)
class Play:
    """An eventually periodic play in lasso form."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def cluster_colors(self, arena: Arena) -> frozenset[int]:
        return frozenset(arena.colors[v] for v in self.cycle)


def play_of(arena: Arena, start: int, s1, s2) -> Play:
    """Walk the strategy-product graph until a state repeats."""
    f1, f2 = as_finite_memory(s1), as_finite_memory(s2)
    if f1.player != 1 or f2.player != 2:
        raise ValueError("play_of expects a player-1 and a player-2 strategy")
    state = (start, f1.update(f1.initial, start), f2.update(f2.initial, start))
    seen: dict[tuple, int] = {}
    trail: list[int] = []
    while state not in seen:
        seen[state] = len(trail)
        v, m1, m2 = state
        trail.append(v)
        nxt = f1.choice(m1, v) if arena.owner(v) == 1 else f2.choice(m2, v)
        if nxt not in arena.succ[v]:
            raise ValueError(f"strategy moved along a non-edge ({v}, {nxt})")
        state = (nxt, f1.update(m1, nxt), f2.update(m2, nxt))
    cut = seen[state]
    return Play(tuple(trail[:cut]), tuple(trail[cut:]))


def _predecessors(succ) -> tuple[tuple[int, ...], ...]:
    pred: list[list[int]] = [[] for _ in succ]
    for u, out in enumerate(succ):
        for w in out:
            pred[w].append(u)
    return tuple(tuple(p) for p in pred)


def _check_start(arena: Arena, start: int) -> None:
    if not 0 <= start < arena.num_vertices:
        raise BadIndexError(f"start vertex {start} out of range "
                            f"0..{arena.num_vertices - 1}")


# ---------------------------------------------------------------------------
# Parity: Zielonka's attractor decomposition on bare successor and
# predecessor lists, so that oracles reuse one topology for many colourings.

def _attractor(succ, pred, owned, region: set[int], target: set[int],
               player: int) -> tuple[set[int], dict[int, int]]:
    """Player's attractor to ``target`` inside ``region``, with the forced
    moves for the player's vertices outside the target.  A worklist over
    predecessors; an opponent vertex joins once none of its successors in
    the region is left outside, so the cost is linear in the region."""
    mine = player == 1
    attr = set(target)
    strategy: dict[int, int] = {}
    left: dict[int, int] = {}
    queue = list(target)
    for w in queue:
        for v in pred[w]:
            if v in attr or v not in region:
                continue
            if (v in owned) == mine:
                strategy[v] = w
            else:
                n = left.get(v)
                if n is None:
                    n = sum(1 for x in succ[v] if x in region)
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


def _zielonka(succ, pred, owned, colors):
    """Winning regions and partial positional strategies of both players.

    Each frame of the explicit stack is one call of the recursive algorithm.
    The frames share ``region``: a frame removes an attractor from it before
    its child runs and puts it back when the child returns, so memory stays
    linear in the arena however deep the recursion goes.
    """
    colors = _compress(colors)
    region = set(range(len(succ)))
    # [player, attractor, its moves, opponent's attractor, opponent's moves]
    frames: list[list] = []
    result = None
    while True:
        if result is None:
            if region:
                p = min(colors[v] for v in region)
                i = 1 if p % 2 == 0 else 2
                target = {v for v in region if colors[v] == p}
                attr, astrat = _attractor(succ, pred, owned, region, target, i)
                for v in target:
                    if (v in owned) == (i == 1):
                        astrat[v] = next(w for w in succ[v] if w in region)
                region -= attr
                frames.append([i, attr, astrat, None, None])
                continue
            result = (set(), set(), {}, {})
        if not frames:
            return result
        i, attr, astrat, battr, so = frames[-1]
        w1, w2, s1, s2 = result
        if battr is None:
            region |= attr
            wo, so, si = (w2, s2, s1) if i == 1 else (w1, s1, s2)
            if wo:
                battr, bstrat = _attractor(succ, pred, owned, region, wo, 3 - i)
                so |= bstrat
                frames[-1][3:] = [battr, so]
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
    return _zielonka(arena.succ, arena.pred, arena.owned, arena.colors)


def _solve_parity_colored(arena: Arena, start: int, colors
                          ) -> tuple[int, PositionalStrategy]:
    w1, w2, s1, s2 = _zielonka(arena.succ, arena.pred, arena.owned, colors)
    winner = 1 if start in w1 else 2
    moves = s1 if winner == 1 else s2
    for v in range(arena.num_vertices):
        if arena.owner(v) == winner:
            moves.setdefault(v, arena.succ[v][0])
    return winner, PositionalStrategy(winner, moves)


def solve_parity(arena: Arena, start: int) -> tuple[int, PositionalStrategy]:
    """Winner from ``start`` plus a positional winning strategy for them."""
    _check_start(arena, start)
    return _solve_parity_colored(arena, start, arena.colors)


def parity_winner_of_play(arena: Arena, play: Play) -> int:
    cluster = play.cluster_colors(arena)
    return 1 if min(cluster) % 2 == 0 else 2


# ---------------------------------------------------------------------------
# Muller: latest-appearance-record reduction to parity.

def lar_update(perm: tuple[int, ...], color: int) -> tuple[tuple[int, ...], int]:
    """Move the colour to the back; the hit is its old 1-based position."""
    j = perm.index(color)
    return perm[:j] + perm[j + 1:] + (color,), j + 1


def muller_memory_bound(arena: Arena) -> int:
    c = len(arena.color_set())
    return math.factorial(c) * c


def _explore(init, step) -> tuple[list, list[list[int]]]:
    """Nodes reachable from ``init``, numbered breadth first from 0, and
    their successor lists; ``step(node)`` lists a node's successors."""
    index = {init: 0}
    nodes = [init]
    succ: list[list[int]] = []
    for node in nodes:  # grows while it is read
        out = []
        for nxt in step(node):
            if nxt not in index:
                index[nxt] = len(nodes)
                nodes.append(nxt)
            out.append(index[nxt])
        succ.append(out)
    return nodes, succ


def _lar_product(arena: Arena, start: int):
    """Reachable LAR product: nodes ``(vertex, (perm, hit))`` from node 0,
    successor lists and player-1 nodes; it does not depend on the win sets."""
    def step(node):
        v, (perm, _) = node
        return [(w, lar_update(perm, arena.colors[w])) for w in arena.succ[v]]

    base = tuple(sorted(arena.color_set()))
    nodes, succ = _explore((start, lar_update(base, arena.colors[start])), step)
    owned = frozenset(i for i, (v, _) in enumerate(nodes) if v in arena.owned)
    return nodes, succ, owned


def _solve_lar(arena: Arena, product, win_sets: frozenset[frozenset[int]]
               ) -> tuple[int, FiniteMemoryStrategy]:
    """Colour the LAR product for ``win_sets``, solve it from node 0 and
    project the winner's positional product strategy onto a memory machine."""
    nodes, succ, owned = product
    colors = []
    for v, (perm, hit) in nodes:
        suffix = frozenset(perm[hit - 1:])
        colors.append(2 * hit if suffix in win_sets else 2 * hit + 1)
    w1, w2, s1, s2 = _zielonka(succ, _predecessors(succ), owned, colors)
    winner = 1 if 0 in w1 else 2
    partial = s1 if winner == 1 else s2
    move_of: dict[tuple, int] = {}
    for i, (v, lar) in enumerate(nodes):
        if (i in owned) == (winner == 1):
            move_of[(lar, v)] = nodes[partial.get(i, succ[i][0])][0]
    base = tuple(sorted(arena.color_set()))

    def update(mem, vertex):
        perm = mem[0] if mem is not None else base
        return lar_update(perm, arena.colors[vertex])

    def choice(mem, vertex):
        return move_of.get((mem, vertex), arena.succ[vertex][0])

    machine = FiniteMemoryStrategy(winner, None, update, choice,
                                   num_states=muller_memory_bound(arena) + 1)
    return winner, machine


def solve_muller(arena: Arena, start: int,
                 win_sets: Iterable[Iterable[int]]
                 ) -> tuple[int, FiniteMemoryStrategy]:
    """Winner (player 1 wins iff the cluster set is a winning set) and a
    finite-memory winning strategy with at most |C|!*|C| states."""
    _check_start(arena, start)
    wsets = frozenset(frozenset(s) for s in win_sets)
    return _solve_lar(arena, _lar_product(arena, start), wsets)


def muller_winner_of_play(arena: Arena, play: Play,
                          win_sets: Iterable[Iterable[int]]) -> int:
    wsets = {frozenset(s) for s in win_sets}
    return 1 if play.cluster_colors(arena) in wsets else 2


# ---------------------------------------------------------------------------
# Multi-outcome games on arenas.

PRIORITY = "priority"
MULLER = "muller"


@dataclass
class MultiOutcomeGraphGame:
    """A two-player graph game whose plays map to abstract outcomes.

    Priority kind: the outcome is read off the minimum colour occurring
    infinitely often (the bottom outcome stands in for an empty cluster set,
    which never happens on finite arenas).  Muller kind: the outcome is read
    off the cluster set itself.
    """

    arena: Arena
    start: int
    kind: str
    outcomes: OutcomeSet
    preferences: PreferenceProfile
    priority_map: Optional[dict[int, int]] = None
    bottom_outcome: Optional[int] = None
    muller_map: Optional[dict[frozenset[int], int]] = None

    def __post_init__(self):
        if self.kind not in (PRIORITY, MULLER):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.preferences.players != 2:
            raise ValueError("two players required")
        _check_start(self.arena, self.start)
        occurring = self.arena.color_set()
        if self.kind == PRIORITY:
            if self.priority_map is None:
                raise ValueError("priority games need a colour-to-outcome map")
            missing = occurring - set(self.priority_map)
            if missing:
                raise ValueError(f"no outcome for colours {sorted(missing)}")
        else:
            if self.muller_map is None:
                raise ValueError("Muller games need a cluster-set-to-outcome map")
            for r in range(1, len(occurring) + 1):
                for combo in itertools.combinations(sorted(occurring), r):
                    if frozenset(combo) not in self.muller_map:
                        raise ValueError(f"no outcome for cluster set {set(combo)}")

    def outcome_of_cluster(self, cluster: frozenset[int]) -> int:
        if not cluster:
            raise NotDeterminedError("empty cluster set on a finite arena")
        if self.kind == PRIORITY:
            return self.priority_map[min(cluster)]
        return self.muller_map[cluster]

    def outcome_of_play(self, play: Play) -> int:
        return self.outcome_of_cluster(play.cluster_colors(self.arena))


class _ArenaOracle(GameBackend):
    """Queries shared by the arena oracles; ``_solve`` answers one label
    with the winner and their winning strategy."""

    game: MultiOutcomeGraphGame

    @property
    def n_outcomes(self) -> int:
        return self.game.outcomes.size

    def winner(self, label: SubsetWord) -> int:
        return self._solve(label)[0]

    def strategy(self, label: SubsetWord) -> OracleStrategy:
        winner, strat = self._solve(label)
        return OracleStrategy(winner, strat, True)

    def play_outcome(self, h1, h2) -> int:
        game = self.game
        return game.outcome_of_play(play_of(game.arena, game.start, h1, h2))

    def better_deviation(self, fixed, deviator: int, better) -> Optional[int]:
        return next(_reachable_outcomes(self.game, fixed, deviator, better),
                    None)


class PriorityOracle(_ArenaOracle):
    """Win-lose oracle for a multi-outcome priority game.

    Renames each colour c to 2c or 2c+1 so that even colours are exactly the
    ones whose outcome the label grants to player 1, then solves the parity
    game on the game's own arena under the renamed colours; the topology is
    shared by every query.  Strategies are positional.
    """

    def __init__(self, game: MultiOutcomeGraphGame):
        if game.kind != PRIORITY:
            raise ValueError("priority oracle needs a priority game")
        self.game = game

    def _solve(self, label: SubsetWord) -> tuple[int, PositionalStrategy]:
        pmap = self.game.priority_map
        renamed = [2 * c if pmap[c] in label else 2 * c + 1
                   for c in self.game.arena.colors]
        return _solve_parity_colored(self.game.arena, self.game.start, renamed)


class MullerOracle(_ArenaOracle):
    """Win-lose oracle for a multi-outcome Muller game, via the LAR reduction.

    The LAR product does not depend on the label, so it is built once here;
    each query only recolours it from the label's winning sets.  Strategies
    are finite-memory machines.
    """

    def __init__(self, game: MultiOutcomeGraphGame):
        if game.kind != MULLER:
            raise ValueError("Muller oracle needs a Muller game")
        self.game = game
        self._product = _lar_product(game.arena, game.start)

    def _solve(self, label: SubsetWord) -> tuple[int, FiniteMemoryStrategy]:
        win_sets = frozenset(s for s, o in self.game.muller_map.items()
                             if o in label)
        return _solve_lar(self.game.arena, self._product, win_sets)


def _residual_graph(game: MultiOutcomeGraphGame, fixed, deviator: int):
    """One-player product graph: the fixed player's moves are forced by their
    machine, every other choice belongs to the deviator."""
    arena = game.arena
    fm = as_finite_memory(fixed)
    if fm.player == deviator:
        raise ValueError("fixed player and deviator must differ")

    def step(node):
        v, mem = node
        targets = ((fm.choice(mem, v),) if arena.owner(v) == fm.player
                   else arena.succ[v])
        return [(w, fm.update(mem, w)) for w in targets]

    return _explore((game.start, fm.update(fm.initial, game.start)), step)


def _cyclic_sccs(succ, part):
    """Tarjan's algorithm on the subgraph that ``part`` induces, on the
    graph's own node numbers; yields every component that holds a cycle."""
    inside = set(part)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    done = len(succ)  # above every index, so a finished node lowers nothing
    for root in part:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in inside:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    index.update(dict.fromkeys(comp, done))
                    if len(comp) > 1 or v in succ[v]:
                        yield comp


def _reachable_outcomes(game: MultiOutcomeGraphGame, fixed, deviator: int,
                        wanted: Iterable[int]):
    """Yield, once each, the outcomes in ``wanted`` that the deviator can
    reach against the fixed strategy, by one nested SCC decomposition of the
    residual graph: a component with a cycle realises its colour set K, and
    every other cycle in it misses a colour of K (for priority games, K's
    minimum), so it lies in the subgraph on K without that colour.  Colour
    sets are visited largest first, once each, on the union of the
    components that lead there, and only while a colour set inside maps to
    an outcome still wanted."""
    nodes, succ = _residual_graph(game, fixed, deviator)
    arena = game.arena
    bit = {c: 1 << i for i, c in enumerate(sorted(arena.color_set()))}
    mask = [bit[arena.colors[v]] for v, _ in nodes]
    priority = game.kind == PRIORITY
    if priority:
        outcome_of = {b: game.priority_map[c] for c, b in bit.items()}
    else:
        outcome_of = {sum(bit[c] for c in s): o
                      for s, o in game.muller_map.items() if s <= bit.keys()}
    wanted = set(wanted)
    pending: dict[int, list[int]] = {2 ** len(bit) - 1: list(range(len(nodes)))}
    while pending:
        allowed = max(pending, key=int.bit_count)
        part = pending.pop(allowed)
        if not any(o in wanted and k & ~allowed == 0
                   for k, o in outcome_of.items()):
            continue
        for comp in _cyclic_sccs(succ, part):
            k = sum({mask[v] for v in comp})  # distinct bits: sum is OR
            o = outcome_of[k & -k if priority else k]
            if o in wanted:
                wanted.discard(o)
                yield o
            for drop in (k & -k,) if priority else (b for b in bit.values()
                                                    if k & b):
                rest = k ^ drop
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
                                   range(game.outcomes.size)))


@dataclass
class GraphEquilibrium:
    strategy_1: FiniteMemoryStrategy | PositionalStrategy
    strategy_2: FiniteMemoryStrategy | PositionalStrategy
    outcome: int
    counter: CallCounter
    restricted: bool


def multi_outcome_ne(game: MultiOutcomeGraphGame) -> GraphEquilibrium:
    """Nash equilibrium of a multi-outcome priority or Muller game.

    Priority games yield positional profiles (preferences of finite height);
    Muller games yield finite-memory profiles (acyclic preferences).  The
    result is verified against all deviations by a nested SCC decomposition
    of each residual graph that stops at the first preferred outcome.
    """
    if game.kind == PRIORITY and any(height(p) is None
                                     for p in game.preferences.prefs):
        raise UnboundedHeightError(
            "priority transfer needs finite-height preferences")
    oracle = PriorityOracle(game) if game.kind == PRIORITY else MullerOracle(game)
    result = equilibrium(oracle, game.preferences)
    restricted = result.strategy_1.restricted and result.strategy_2.restricted
    return GraphEquilibrium(*result.profile, result.outcome, result.counter,
                            restricted)
