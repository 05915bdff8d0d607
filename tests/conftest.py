"""Shared generators: random trees, determined structures, preferences, arenas."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

import eqtransfer as et
from reference_extensive import Leaf, Node, index_tree

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def random_tree(rng: random.Random, n_outcomes: int,
                max_depth: int = 3) -> et.GameTree:
    def gen(depth):
        if depth >= max_depth or (depth > 0 and rng.random() < 0.45):
            return Leaf(rng.randrange(n_outcomes))
        k = rng.randint(2, 3)
        return Node(rng.choice((1, 2)), tuple(gen(depth + 1) for _ in range(k)))

    return index_tree(gen(0), et.OutcomeSet(n_outcomes))


def random_determined_structure(rng: random.Random, max_strategies: int = 5,
                                max_outcomes: int = 6) -> et.GameStructure:
    """Tree games are determined by backward induction, so their normal
    forms give a rich supply of determined structures."""
    while True:
        n_out = rng.randint(1, max_outcomes)
        tree = random_tree(rng, n_out)
        st = et.to_normal_form(tree)
        if all(c <= max_strategies for c in st.strategy_counts):
            return st


def random_structure(rng: random.Random, strategy_counts, n_outcomes: int
                     ) -> et.GameStructure:
    total = 1
    for c in strategy_counts:
        total *= c
    table = [rng.randrange(n_outcomes) for _ in range(total)]
    return et.GameStructure(tuple(strategy_counts),
                            et.OutcomeSet(n_outcomes), table)


def random_acyclic_preference(rng: random.Random, n: int,
                              p: float = 0.4) -> et.Preference:
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[i], order[j])
             for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return et.Preference.from_pairs(n, pairs)


def random_arena(rng: random.Random, max_vertices: int,
                 max_color: int) -> et.Arena:
    nv = rng.randint(1, max_vertices)
    owned = [v for v in range(nv) if rng.random() < 0.5]
    edges = []
    for u in range(nv):
        for w in rng.sample(range(nv), rng.randint(1, nv)):
            edges.append((u, w))
    colors = [rng.randint(0, max_color) for _ in range(nv)]
    return et.Arena(nv, owned, edges, colors)


def random_priority_game(rng, max_vertices=6, max_outcomes=4):
    arena = random_arena(rng, max_vertices, max_color=4)
    n_out = rng.randint(1, max_outcomes)
    outcome_map = {c: rng.randrange(n_out) for c in arena.color_set()}
    prefs = et.PreferenceProfile((
        random_acyclic_preference(rng, n_out),
        random_acyclic_preference(rng, n_out)))
    return et.MultiOutcomeGraphGame(
        arena=arena, start=rng.randrange(arena.num_vertices), kind="priority",
        outcomes=et.OutcomeSet(n_out), preferences=prefs,
        outcome_map=outcome_map)


def random_muller_game(rng, max_vertices=4, max_color=2, max_outcomes=4):
    arena = random_arena(rng, max_vertices, max_color=max_color)
    n_out = rng.randint(1, max_outcomes)
    occ = sorted(arena.color_set())
    outcome_map = {
        frozenset(combo): rng.randrange(n_out)
        for r in range(1, len(occ) + 1)
        for combo in itertools.combinations(occ, r)}
    prefs = et.PreferenceProfile((
        random_acyclic_preference(rng, n_out),
        random_acyclic_preference(rng, n_out)))
    return et.MultiOutcomeGraphGame(
        arena=arena, start=rng.randrange(arena.num_vertices), kind="muller",
        outcomes=et.OutcomeSet(n_out), preferences=prefs,
        outcome_map=outcome_map)


def memory_machine(arena: et.Arena, player: int, n_states: int,
                   update, choice) -> et.FiniteMemoryStrategy:
    """The strategy graph of a table-driven memory machine: memory starts at
    0 and is updated on every visited vertex, the start included, and the
    move depends on the memory and the current vertex.  Its states are all
    (vertex, memory) pairs, state v * n_states + m, and a play from any
    vertex may begin."""
    def state(v, m):
        return v * n_states + m

    vertex, succ, move = [], [], []
    for v, out in enumerate(arena.succ):
        for m in range(n_states):
            vertex.append(v)
            succ.append([state(w, update[(m, w)]) for w in out])
            move.append(out.index(choice[(m, v)])
                        if arena.owner(v) == player else -1)
    entry = {v: state(v, update[(0, v)]) for v in range(arena.num_vertices)}
    return et.FiniteMemoryStrategy(player, vertex, succ, move, entry)


def random_memory_machine(rng: random.Random, arena: et.Arena, player: int,
                          n_states: int) -> et.FiniteMemoryStrategy:
    update = {(m, v): rng.randrange(n_states)
              for m in range(n_states) for v in range(arena.num_vertices)}
    choice = {(m, v): rng.choice(arena.succ[v])
              for m in range(n_states) for v in range(arena.num_vertices)}
    return memory_machine(arena, player, n_states, update, choice)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260823)
