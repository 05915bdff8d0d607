"""Differential tests: the paper's three applications meet on shared games.

A tree game is solved by backward induction, by its normal form and as a
priority arena; a priority game by Zielonka's algorithm and as the Muller
game it induces.  Every pair must agree on the winner of every label and on
the verified transfer's enforced set and outcome.
"""

import itertools
import random

import eqtransfer as et
from conftest import random_acyclic_preference, random_tree
from test_graph_games import random_priority_game

INSTANCES = 500
MAX_PROFILES = 1024


def tree_as_arena(t: et.GameTree, prefs: et.PreferenceProfile
                  ) -> et.MultiOutcomeGraphGame:
    """Each internal node is a vertex of its owner, and each outcome o a
    sink vertex with a self-loop coloured o.  Internal vertices take colour
    0: a play passes them only finitely often."""
    m, n = len(t.owners), t.outcomes.size

    def vertex(code):
        return code if code >= 0 else m + ~code

    edges = [(i, vertex(c)) for i, kids in enumerate(t.children)
             for c in kids] + [(m + o, m + o) for o in range(n)]
    arena = et.Arena(m + n, t.owned_nodes(1), edges,
                     [0] * m + list(range(n)))
    return et.MultiOutcomeGraphGame(arena, vertex(t.root_code), "priority",
                                    t.outcomes, prefs,
                                    {o: o for o in range(n)})


def priority_as_muller(game: et.MultiOutcomeGraphGame
                       ) -> et.MultiOutcomeGraphGame:
    """The Muller game whose cluster sets take their minimum colour's
    outcome."""
    colors = sorted(game.arena.color_set())
    outcome_map = {frozenset(k): game.outcome_map[min(k)]
                   for r in range(1, len(colors) + 1)
                   for k in itertools.combinations(colors, r)}
    return et.MultiOutcomeGraphGame(game.arena, game.start, "muller",
                                    game.outcomes, game.preferences,
                                    outcome_map)


def random_small_tree(rng: random.Random) -> et.GameTree:
    """A random tree with at most 6 outcomes whose normal form has at most
    MAX_PROFILES profiles."""
    while True:
        t = random_tree(rng, rng.randint(1, 6))
        if t.strategy_count(1) * t.strategy_count(2) <= MAX_PROFILES:
            return t


def random_prefs(rng: random.Random, n: int) -> et.PreferenceProfile:
    return et.PreferenceProfile((random_acyclic_preference(rng, n),
                                 random_acyclic_preference(rng, n)))


def assert_same_winners(backends, n: int) -> None:
    for label in range(1 << n):
        winners = {b.winner(label) for b in backends}
        assert len(winners) == 1, (label, winners)


def test_tree_normal_form_and_arena_agree():
    rng = random.Random(16001)
    for _ in range(INSTANCES):
        t = random_small_tree(rng)
        prefs = random_prefs(rng, t.outcomes.size)
        games = ((t, prefs), et.NormalFormGame(et.to_normal_form(t), prefs),
                 tree_as_arena(t, prefs))
        assert_same_winners((t.backend(), games[1].backend(),
                             games[2].backend()), t.outcomes.size)
        results = {(r.enforced, r.outcome) for r in map(et.equilibrium, games)}
        assert len(results) == 1, results


def test_priority_and_induced_muller_agree():
    rng = random.Random(16002)
    for _ in range(INSTANCES):
        game = random_priority_game(rng, max_vertices=6, max_outcomes=5)
        muller = priority_as_muller(game)
        assert_same_winners((et.PriorityOracle(game), et.MullerOracle(muller)),
                            game.outcomes.size)
        results = {(r.enforced, r.outcome)
                   for r in map(et.equilibrium, (game, muller))}
        assert len(results) == 1, results
