"""Reference parity solving for the tests: the plain fixed-point attractor
and the recursive form of Zielonka's algorithm, with no priority
compression, plus a certificate that checks claimed winning regions and
strategies without trusting any solver, and the enumeration of positional
strategies that the brute-force checks range over."""

from __future__ import annotations

import itertools
from typing import Iterator

import eqtransfer as et


def all_positional_strategies(arena: et.Arena, player: int
                              ) -> Iterator[et.PositionalStrategy]:
    mine = sorted(arena.owned if player == 1 else
                  set(range(arena.num_vertices)) - arena.owned)
    for picks in itertools.product(*(arena.succ[v] for v in mine)):
        yield et.PositionalStrategy(player, dict(zip(mine, picks)))


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
