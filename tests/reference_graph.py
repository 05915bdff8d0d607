"""Reference parity solving for the tests: the plain fixed-point attractor
and the recursive form of Zielonka's algorithm, with no priority
compression, plus a certificate that checks claimed winning regions and
strategies without trusting any solver, the enumeration of positional
strategies that the brute-force checks range over, plays and residual
graphs walked over (vertex, state) pairs, a play's cluster and the winner of
a single play, the LAR product with its Muller winners and memory bound,
and the deviation outcomes of a residual graph found by one Tarjan run per
colour (priority) or per colour subset (Muller)."""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

import eqtransfer as et
from eqtransfer import graph_games


def all_positional_strategies(arena: et.Arena, player: int
                              ) -> Iterator[et.FiniteMemoryStrategy]:
    mine = sorted(arena.owned if player == 1 else
                  set(range(arena.num_vertices)) - arena.owned)
    for picks in itertools.product(*(arena.succ[v] for v in mine)):
        yield et.FiniteMemoryStrategy.positional(arena, player,
                                                 dict(zip(mine, picks)))


def _step(arena: et.Arena, machine, v: int, s: int, k: int) -> tuple[int, int]:
    """The (vertex, state) pair that the k-th edge at ``v`` leads to, after
    checking that the machine's state sits at that vertex."""
    w, t = arena.succ[v][k], machine.succ[s][k]
    assert machine.vertex[s] == v and machine.vertex[t] == w
    return w, t


def reference_play(arena: et.Arena, start: int, s1, s2) -> et.Play:
    """The play of two strategy machines, walked over (vertex, state, state)
    triples until one repeats."""
    node = (start, s1.entry[start], s2.entry[start])
    trail: list[tuple[int, int, int]] = []
    seen: dict[tuple[int, int, int], int] = {}
    while node not in seen:
        seen[node] = len(trail)
        trail.append(node)
        v, a, b = node
        k = s1.move[a] if arena.owner(v) == 1 else s2.move[b]
        assert k >= 0
        (w, a2), (_, b2) = _step(arena, s1, v, a, k), _step(arena, s2, v, b, k)
        node = (w, a2, b2)
    cut = seen[node]
    return et.Play(tuple(v for v, _, _ in trail[:cut]),
                   tuple(v for v, _, _ in trail[cut:]))


def cluster_colors(arena: et.Arena, play: et.Play) -> frozenset[int]:
    """The colours the play sees infinitely often: those of its cycle."""
    return frozenset(arena.colors[v] for v in play.cycle)


def parity_winner_of_play(arena: et.Arena, play: et.Play) -> int:
    cluster = cluster_colors(arena, play)
    return 1 if min(cluster) % 2 == 0 else 2


def muller_winner_of_play(arena: et.Arena, play: et.Play, win_sets) -> int:
    wsets = {frozenset(s) for s in win_sets}
    return 1 if cluster_colors(arena, play) in wsets else 2


def muller_memory_bound(arena: et.Arena) -> int:
    """|C|! * |C|: the latest appearance records over the arena's colours
    times the hit positions, a bound on a Muller machine's states per
    vertex."""
    c = len(arena.color_set())
    return math.factorial(c) * c


def lar_product(arena: et.Arena, start: int
                ) -> tuple[list[tuple[int, tuple[int, ...], int]],
                           list[list[int]]]:
    """The latest-appearance-record product reachable from ``start``: nodes
    (vertex, colour order, hit) numbered breadth first, and their successor
    lists.  Each visit moves the vertex's colour to the back of the order,
    and the hit is the colour's old position, counted from 1."""
    def visit(perm, v):
        c = arena.colors[v]
        j = perm.index(c)
        return v, perm[:j] + perm[j + 1:] + (c,), j + 1

    init = visit(tuple(sorted(arena.color_set())), start)
    index = {init: 0}
    nodes = [init]
    succ: list[list[int]] = []
    for v, perm, _ in nodes:  # grows while it is read
        out = []
        for w in arena.succ[v]:
            node = visit(perm, w)
            if node not in index:
                index[node] = len(nodes)
                nodes.append(node)
            out.append(index[node])
        succ.append(out)
    return nodes, succ


def lar_muller_winners(game: et.MultiOutcomeGraphGame, labels
                       ) -> list[int]:
    """Winner from the game's start for each label (player 1 wins the
    outcomes in the mask), by the arena solver's Zielonka run (cross-checked
    against ``recursive_regions`` in the tests) on one LAR product,
    prepared once with its nodes grouped by (hit, outcome): a node is
    coloured 2*hit, plus 1 when player 1 loses the set of colours from the
    hit on.  The least hit seen infinitely often is the one whose
    colours are exactly the play's cluster set."""
    nodes, succ = lar_product(game.arena, game.start)
    lar = et.Arena(len(nodes), [i for i, (v, _, _) in enumerate(nodes)
                                if game.arena.owner(v) == 1],
                   [(i, j) for i, out in enumerate(succ) for j in out],
                   [hit for _, _, hit in nodes])
    outcome = [game.outcome_map[frozenset(perm[hit - 1:])]
               for _, perm, hit in nodes]
    prepared = graph_games._Prepared(lar, list(zip(lar.colors, outcome)))
    winners = []
    for label in labels:
        colors = [2 * hit + 1 - (label >> o & 1) for hit, o in prepared.keys]
        w1 = graph_games._zielonka(prepared, colors)[0]
        winners.append(1 if 0 in w1 else 2)
    return winners


def residual_graph(game: et.MultiOutcomeGraphGame, fixed, deviator: int
                   ) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The deviator's one-player graph against the fixed machine, explored
    from the game's start: nodes are (vertex, state) pairs numbered breadth
    first, the fixed player moves by the machine, the deviator along every
    edge."""
    arena = game.arena
    assert fixed.player != deviator
    init = (game.start, fixed.entry[game.start])
    index = {init: 0}
    nodes = [init]
    succ: list[list[int]] = []
    for v, s in nodes:  # grows while it is read
        ks = ([fixed.move[s]] if arena.owner(v) == fixed.player
              else range(len(arena.succ[v])))
        out = []
        for k in ks:
            nxt = _step(arena, fixed, v, s, k)
            if nxt not in index:
                index[nxt] = len(nodes)
                nodes.append(nxt)
            out.append(index[nxt])
        succ.append(out)
    return nodes, succ


def shuffled_chain_arena(n: int, rng: random.Random) -> et.Arena:
    """A cycle plus self-loops with the colours 0..n-1 shuffled and random
    owners: Zielonka's worst case without the self-cycle rule."""
    edges = [(u, (u + 1) % n) for u in range(n)] + [(u, u) for u in range(n)]
    colors = list(range(n))
    rng.shuffle(colors)
    return et.Arena(n, [u for u in range(n) if rng.random() < 0.5], edges,
                    colors)


def arena_edges(arena: et.Arena) -> list[tuple[int, int]]:
    """The arena's distinct edges, grouped by source."""
    return [(u, v) for u, out in enumerate(arena.succ) for v in out]


def two_cycle_chain_arena(n: int, rng: random.Random) -> et.Arena:
    """The shuffled chain with each self-loop at u replaced by a 2-cycle
    through a private vertex n+u that has u's owner and the colour n, above
    every real colour; no self-loop is left for the self-cycle rule."""
    chain = shuffled_chain_arena(n, rng)
    edges = [e for e in arena_edges(chain) if e[0] != e[1]]
    edges += [e for u in range(n) for e in ((u, n + u), (n + u, u))]
    return et.Arena(2 * n, chain.owned | {n + u for u in chain.owned}, edges,
                    chain.colors + (n,) * n)


def fixed_point_attractor(succ, owned, region: set[int], target: set[int],
                          player: int) -> tuple[set[int], dict[int, int]]:
    """Player's attractor to ``target`` inside ``region`` by sweeping the
    region until nothing changes, with the forced moves for the player's
    vertices outside the target."""
    attr = set(target)
    strategy: dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        for v in region - attr:
            inside = [w for w in succ[v] if w in region]
            if (v in owned) == (player == 1):
                hit = next((w for w in inside if w in attr), None)
                if hit is not None:
                    attr.add(v)
                    strategy[v] = hit
                    changed = True
            elif all(w in attr for w in inside):
                attr.add(v)
                changed = True
    return attr, strategy


def recursive_regions(succ, owned, colors):
    """Winning regions and partial positional strategies of both players,
    by Zielonka's recursion on the raw colours."""

    def solve(region: set[int]):
        if not region:
            return set(), set(), {}, {}
        p = min(colors[v] for v in region)
        i = 1 if p % 2 == 0 else 2
        opp = 3 - i
        target = {v for v in region if colors[v] == p}
        attr, astrat = fixed_point_attractor(succ, owned, region, target, i)
        w1, w2, s1, s2 = solve(region - attr)
        wo = w2 if i == 1 else w1
        si, so = (s1, s2) if i == 1 else (s2, s1)
        if not wo:
            strat = dict(si)
            strat.update(astrat)
            for v in target:
                if (v in owned) == (i == 1):
                    strat.setdefault(v, next(w for w in succ[v] if w in region))
            if i == 1:
                return set(region), set(), strat, {}
            return set(), set(region), {}, strat
        battr, bstrat = fixed_point_attractor(succ, owned, region, wo, opp)
        w1c, w2c, s1c, s2c = solve(region - battr)
        opp_strat = dict(so)
        opp_strat.update(bstrat)
        opp_strat.update(s2c if i == 1 else s1c)
        if i == 1:
            return w1c, w2c | battr, s1c, opp_strat
        return w1c | battr, w2c, opp_strat, s2c

    return solve(set(range(len(succ))))


def _on_bad_cycle(u: int, inside, colors) -> bool:
    """Is ``u`` on a cycle of the graph ``inside`` whose vertices all have
    colour at least ``colors[u]``?"""
    floor = colors[u]
    seen = set()
    todo = [w for w in inside.get(u, ()) if colors[w] >= floor]
    while todo:
        w = todo.pop()
        if w == u:
            return True
        if w in seen:
            continue
        seen.add(w)
        todo.extend(x for x in inside.get(w, ()) if colors[x] >= floor)
    return False


def region_certificate(succ, owned, colors, regions) -> list[str]:
    """Problems with claimed winning regions ``(w1, w2, s1, s2)``; empty
    when the claim is certified.

    The regions must partition the vertices; each winner's strategy must
    keep every play inside the winner's region whatever the opponent does;
    and in the graph left once the winner's moves are fixed, no cycle inside
    the region may have a minimum colour of the opponent's parity.
    """
    w1, w2, s1, s2 = regions
    n = len(succ)
    problems = []
    if w1 | w2 != set(range(n)) or w1 & w2:
        problems.append("regions do not partition the vertices")
    for player, region, strat in ((1, w1, s1), (2, w2, s2)):
        inside: dict[int, list[int]] = {}
        for v in region:
            if (v in owned) == (player == 1):
                w = strat.get(v)
                if w not in succ[v] or w not in region:
                    problems.append(f"player {player} leaves its region at {v}")
                    continue
                inside[v] = [w]
            else:
                if any(w not in region for w in succ[v]):
                    problems.append(f"opponent escapes region {player} at {v}")
                inside[v] = [w for w in succ[v] if w in region]
        bad_parity = 1 if player == 1 else 0
        for u in region:
            if colors[u] % 2 == bad_parity and _on_bad_cycle(u, inside, colors):
                problems.append(f"player {player} loses on a cycle through {u}")
    return problems


def _tarjan_sccs(n: int, succ: list[list[int]]) -> list[list[int]]:
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = itertools.count(1)

    def strongconnect(root: int) -> None:
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                visited[v] = True
                index[v] = low[v] = next(counter)
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if not visited[w]:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)

    for v in range(n):
        if not visited[v]:
            strongconnect(v)
    return sccs


def _has_cycle_through_color(keep: list[int], succ: list[list[int]],
                             node_colors: list[int], colors: set[int],
                             require_exact: bool) -> bool:
    """Does the subgraph induced by ``keep`` contain a cycle whose colour set
    covers ``colors`` (exactly, when required)?"""
    keep_set = set(keep)
    remap = {v: i for i, v in enumerate(keep)}
    sub_succ = [[remap[w] for w in succ[v] if w in keep_set] for v in keep]
    for comp in _tarjan_sccs(len(keep), sub_succ):
        comp_set = set(comp)
        has_edge = any(w in comp_set for v in comp for w in sub_succ[v])
        if not has_edge:
            continue
        comp_colors = {node_colors[keep[v]] for v in comp}
        if require_exact:
            if colors <= comp_colors:
                return True
        else:
            if colors & comp_colors:
                return True
    return False


def reference_deviation_outcomes(game: et.MultiOutcomeGraphGame, fixed,
                                 deviator: int) -> set[int]:
    """Every outcome the deviator can reach against the fixed strategy: a
    colour c is a reachable minimum iff the subgraph on the colours >= c
    has a cycle through c, and a colour set K is a reachable cluster set
    iff the subgraph on K has a cycle through all of K."""
    nodes, succ = residual_graph(game, fixed, deviator)
    arena = game.arena
    node_colors = [arena.colors[v] for v, _ in nodes]
    achievable: set[int] = set()
    occurring = sorted(set(node_colors))
    if game.kind == "priority":
        for c in occurring:
            keep = [i for i, col in enumerate(node_colors) if col >= c]
            if _has_cycle_through_color(keep, succ, node_colors, {c},
                                        require_exact=False):
                achievable.add(game.outcome_map[c])
        return achievable
    for r in range(1, len(occurring) + 1):
        for combo in itertools.combinations(occurring, r):
            colors = set(combo)
            keep = [i for i, col in enumerate(node_colors) if col in colors]
            if _has_cycle_through_color(keep, succ, node_colors, colors,
                                        require_exact=True):
                achievable.add(game.outcome_map[frozenset(colors)])
    return achievable
