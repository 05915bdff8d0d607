"""Arenas, parity and Muller solving, and multi-outcome graph equilibria."""

import copy
import dataclasses
import itertools
import json
import pickle
import random
import sys
from pathlib import Path

import pytest

import eqtransfer as et
from eqtransfer import graph_games, jsonio
from conftest import (fixture_path, memory_machine, random_acyclic_preference,
                      random_arena, random_memory_machine)
from limits import chain_arena
from reference_graph import (all_positional_strategies, cluster_colors,
                             lar_muller_winners, lar_product,
                             muller_memory_bound,
                             muller_winner_of_play, parity_winner_of_play,
                             recursive_regions, reference_deviation_outcomes,
                             reference_play, region_certificate,
                             shuffled_chain_arena, two_cycle_chain_arena)


def one_state_per_vertex(strategy):
    return len(set(strategy.vertex)) == strategy.num_states


def brute_parity_winner(arena, start):
    for s1 in all_positional_strategies(arena, 1):
        if all(parity_winner_of_play(
                arena, et.play_of(arena, start, s1, s2)) == 1
               for s2 in all_positional_strategies(arena, 2)):
            return 1
    return 2


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


class TestArena:
    def test_rejects_sinks(self):
        with pytest.raises(ValueError):
            et.Arena(2, [0], [(0, 1)], [0, 0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            et.Arena(2, [0], [(0, 2), (1, 0)], [0, 0])
        with pytest.raises(ValueError):
            et.Arena(2, [5], [(0, 1), (1, 0)], [0, 0])

    @pytest.mark.parametrize("field, args", [
        ("owned", (2, [True], [(0, 1), (1, 0)], [0, 1])),
        ("owned", (2, [0.0], [(0, 1), (1, 0)], [0, 1])),
        ("edges", (2, [0], [(0, 1.9), (1, 0)], [0, 1])),
        ("edges", (2, [0], [(0, 1), ("1", 0)], [0, 1])),
        ("edges", (2, [0], [(0, 1), (1, False)], [0, 1])),
        ("colors", (2, [0], [(0, 1), (1, 0)], [0.5, 1])),
        ("colors", (2, [0], [(0, 1), (1, 0)], [0, "1"])),
        ("colors", (2, [0], [(0, 1), (1, 0)], [True, 1])),
        ("vertex count", (2.0, [0], [(0, 1), (1, 0)], [0, 1])),
    ])
    def test_rejects_non_integers(self, field, args):
        with pytest.raises(ValueError, match=f"arena {field}: .* is not an "
                                             "integer"):
            et.Arena(*args)

    def test_accepts_numpy_integers(self):
        import numpy as np
        a = et.Arena(np.int64(2), [np.int32(0)],
                     [(np.int64(0), np.int64(1)), (1, 0)], np.arange(2))
        assert (a.owned, a.edges, a.colors) == ({0}, ((0, 1), (1, 0)), (0, 1))
        assert all(type(x) is int for x in (a.num_vertices, *a.colors))

    def test_owner_partition(self):
        a = et.Arena(3, [1], [(0, 1), (1, 2), (2, 0)], [0, 1, 2])
        assert a.owner(1) == 1 and a.owner(0) == 2 and a.owner(2) == 2


class TestPlayOf:
    def test_lasso_shape(self):
        a = et.Arena(3, [0, 1, 2], [(0, 1), (1, 2), (2, 1)], [0, 1, 2])
        s1 = et.FiniteMemoryStrategy.positional(a, 1, {0: 1, 1: 2, 2: 1})
        s2 = et.FiniteMemoryStrategy.positional(a, 2, {})
        play = et.play_of(a, 0, s1, s2)
        assert play.prefix == (0,)
        assert play.cycle == (1, 2)
        assert cluster_colors(a, play) == {1, 2}

    def test_rejects_non_edges(self):
        a = et.Arena(2, [0, 1], [(0, 1), (1, 0)], [0, 0])
        with pytest.raises(ValueError):
            et.FiniteMemoryStrategy.positional(a, 1, {0: 0, 1: 0})

    def test_memory_machine_walk(self):
        # alternate between self-loop and move, driven by a two-state machine
        a = et.Arena(2, [0, 1], [(0, 0), (0, 1), (1, 0)], [0, 1])
        update = {(m, v): (m + 1) % 2 for m in range(2) for v in range(2)}
        choice = {(0, 0): 0, (1, 0): 1, (0, 1): 0, (1, 1): 0}
        s1 = memory_machine(a, 1, 2, update, choice)
        play = et.play_of(a, 0, s1, et.FiniteMemoryStrategy.positional(a, 2, {}))
        assert cluster_colors(a, play) == {0, 1}


class TestParity:
    def test_single_vertex_even(self):
        a = et.Arena(1, [0], [(0, 0)], [2])
        winner, strat = et.solve_parity(a, 0)
        assert winner == 1 and list(strat.move) == [0]

    def test_single_vertex_odd(self):
        a = et.Arena(1, [0], [(0, 0)], [1])
        winner, strat = et.solve_parity(a, 0)
        assert winner == 2

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            arena = random_arena(rng, 4, max_color=3)
            start = rng.randrange(arena.num_vertices)
            winner, strat = et.solve_parity(arena, start)
            assert winner == brute_parity_winner(arena, start)
            opp = 2 if winner == 1 else 1
            for other in all_positional_strategies(arena, opp):
                play = (et.play_of(arena, start, strat, other) if winner == 1
                        else et.play_of(arena, start, other, strat))
                assert parity_winner_of_play(arena, play) == winner

    def test_regions_partition_vertices(self, rng):
        for _ in range(50):
            arena = random_arena(rng, 5, max_color=4)
            w1, w2, s1, s2 = et.parity_regions(arena)
            assert w1 | w2 == set(range(arena.num_vertices))
            assert not (w1 & w2)
            for v, target in s1.items():
                assert target in arena.succ[v]


def certify(arena, regions):
    return region_certificate(arena.succ, arena.owned, arena.colors, regions)


class TestParityCrossCheck:
    def test_matches_recursive_reference(self):
        rng = random.Random(4041)
        for _ in range(300):
            nv = rng.randint(2, 40)
            palette = rng.sample(range(-8, 9), rng.randint(1, 8))
            edges = [(u, w) for u in range(nv)
                     for w in rng.sample(range(nv), rng.randint(1, min(nv, 4)))]
            arena = et.Arena(nv, [v for v in range(nv) if rng.random() < 0.5],
                             edges, [rng.choice(palette) for _ in range(nv)])
            regions = et.parity_regions(arena)
            reference = recursive_regions(arena.succ, arena.owned, arena.colors)
            assert regions[:2] == reference[:2]
            assert certify(arena, regions) == []
            assert certify(arena, reference) == []
            compressed = graph_games._compress(arena.colors)
            assert recursive_regions(arena.succ, arena.owned,
                                     compressed)[:2] == reference[:2]

    def test_certificate_rejects_wrong_regions(self):
        arena = chain_arena(6)
        w1, w2, s1, s2 = et.parity_regions(arena)
        assert certify(arena, (w2, w1, s1, s2)) != []
        assert certify(arena, (w1 | w2, set(), s1, s2)) != []

    def test_deep_chain_needs_no_recursion(self):
        arena = chain_arena(400)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            regions = et.parity_regions(arena)
        finally:
            sys.setrecursionlimit(limit)
        assert certify(arena, regions) == []

    def test_chains_match_recursive_reference(self):
        """Shuffled self-loop chains, where the self-cycle rule settles
        most vertices, and two-cycle chains, where it never fires."""
        rng = random.Random(4243)
        arenas = [shuffled_chain_arena(rng.randint(2, 80), rng)
                  for _ in range(100)]
        arenas += [two_cycle_chain_arena(rng.randint(1, 15), rng)
                   for _ in range(20)]
        for arena in arenas:
            regions = et.parity_regions(arena)
            reference = recursive_regions(arena.succ, arena.owned, arena.colors)
            assert regions[:2] == reference[:2]
            assert certify(arena, regions) == []
            assert certify(arena, reference) == []

    @pytest.mark.parametrize("arena", [
        shuffled_chain_arena(5000, random.Random(5000)), chain_arena(1000)],
        ids=["shuffled-5000", "sorted-1000"])
    def test_large_chains_are_certified(self, arena):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            regions = et.parity_regions(arena)
        finally:
            sys.setrecursionlimit(limit)
        assert certify(arena, regions) == []


def same_strategy(a, b):
    """Equal strategy graphs: states, edges, moves and entry states."""
    return ((a.player, a.vertex, a.succ, a.move, a.entry)
            == (b.player, b.vertex, b.succ, b.move, b.entry))


class TestOracles:
    def test_priority_oracle_matches_fresh_solves(self, rng):
        for _ in range(10):
            game = random_priority_game(rng)
            oracle = et.PriorityOracle(game)
            arena = game.arena
            for label in range(1 << game.outcomes.size):
                colors = [2 * c + 1 - (label >> game.outcome_map[c] & 1)
                          for c in arena.colors]
                fresh = et.Arena(arena.num_vertices, arena.owned, arena.edges,
                                 colors)
                winner, strategy = et.solve_parity(fresh, game.start)
                assert oracle.winner(label) == winner
                answer = oracle.strategy(label)
                assert answer.player == winner
                assert same_strategy(answer.handle, strategy)

    def test_muller_oracle_matches_fresh_solves(self, rng):
        for _ in range(10):
            game = random_muller_game(rng)
            oracle = et.MullerOracle(game)
            arena = game.arena
            for label in range(1 << game.outcomes.size):
                win_sets = [s for s, o in game.outcome_map.items()
                            if label >> o & 1]
                fresh = et.Arena(arena.num_vertices, arena.owned, arena.edges,
                                 arena.colors)
                winner, strategy = et.solve_muller(fresh, game.start, win_sets)
                assert oracle.winner(label) == winner
                answer = oracle.strategy(label)
                assert answer.player == winner
                assert same_strategy(answer.handle, strategy)

    def test_muller_strategy_queries_reuse_probe_solves(self, rng,
                                                       monkeypatch):
        """A Muller transfer runs McNaughton's recursion once per distinct
        label queried, and the strategies equal fresh solves of their
        labels."""
        solves, queried = [0], {"winner": [], "strategy": []}
        real_solve = graph_games._mcnaughton

        def counting_solve(*args):
            solves[0] += 1
            return real_solve(*args)

        monkeypatch.setattr(graph_games, "_mcnaughton", counting_solve)
        for name in queried:
            real = getattr(et.MullerOracle, name)

            def recording(oracle, label, name=name, real=real):
                queried[name].append(label)
                return real(oracle, label)

            monkeypatch.setattr(et.MullerOracle, name, recording)
        for _ in range(40):
            game = random_muller_game(rng, max_vertices=8, max_color=3,
                                      max_outcomes=6)
            solves[0] = 0
            for labels in queried.values():
                labels.clear()
            eq = et.multi_outcome_ne(game)
            full = (1 << game.outcomes.size) - 1
            probed, labels = set(queried["winner"]), list(queried["strategy"])
            assert len(probed) <= game.outcomes.size
            assert set(labels) <= probed | {full}
            assert solves[0] == len(probed | set(labels))
            fresh = et.MullerOracle(game)
            for label, machine in zip(labels, eq.profile):
                assert same_strategy(fresh.strategy(label).handle, machine)

    def test_strategy_queries_reuse_probe_solves(self, rng, monkeypatch):
        """A transfer solves each distinct label once: both strategy labels
        were probed, except a full mask that no probe accepted, and the
        strategies equal fresh solves of their labels."""
        solves, queried = [0], {"winner": [], "strategy": []}
        real_solve = graph_games._solve_graph

        def counting_solve(*args):
            solves[0] += 1
            return real_solve(*args)

        monkeypatch.setattr(graph_games, "_solve_graph", counting_solve)
        for name in queried:
            real = getattr(et.PriorityOracle, name)

            def recording(oracle, label, name=name, real=real):
                queried[name].append(label)
                return real(oracle, label)

            monkeypatch.setattr(et.PriorityOracle, name, recording)
        for _ in range(40):
            game = random_priority_game(rng, max_vertices=10, max_outcomes=6)
            solves[0] = 0
            for labels in queried.values():
                labels.clear()
            eq = et.multi_outcome_ne(game)
            full = (1 << game.outcomes.size) - 1
            probed, labels = set(queried["winner"]), list(queried["strategy"])
            assert len(probed) <= game.outcomes.size
            assert set(labels) <= probed | {full}
            assert solves[0] == len(probed | set(labels))
            fresh = et.PriorityOracle(game)
            for label, machine in zip(labels, eq.profile):
                assert same_strategy(fresh.strategy(label).handle, machine)


class TestMullerWinner:
    """McNaughton's algorithm on the arena against Zielonka's algorithm on
    the LAR product (``lar_muller_winners``), on every label: winner and
    strategy queries name the LAR winner, and the strategy wins, by the
    reference deviation sets of its residual graph."""

    @staticmethod
    def check(game):
        oracle = et.MullerOracle(game)
        labels = range(1 << game.outcomes.size)
        winners = lar_muller_winners(game, labels)
        assert [oracle.winner(label) for label in labels] == winners
        for label, winner in zip(labels, winners):
            answer = oracle.strategy(label)
            assert answer.player == winner
            reached = reference_deviation_outcomes(game, answer.handle,
                                                   3 - winner)
            granted = {o for o in reached if label >> o & 1}
            assert (granted == reached) if winner == 1 else not granted

    def test_random_games_from_every_start(self, rng):
        for _ in range(300):
            game = random_muller_game(rng, max_vertices=6, max_color=4)
            for start in range(game.arena.num_vertices):
                self.check(dataclasses.replace(game, start=start))

    @pytest.mark.parametrize("n_vertices, n_colors", [(20, 6), (40, 5)])
    def test_benchmark_sized_games(self, rng, n_vertices, n_colors):
        for _ in range(2):
            self.check(sized_game(rng, "muller", n_vertices, n_colors))


class TestOutcomeMaps:
    @pytest.mark.parametrize("outcome", [2, -1, "x", None])
    def test_mapped_outcome_out_of_range_rejected(self, outcome):
        arena = et.Arena(2, [0], [(0, 1), (1, 0)], [0, 1])
        prefs = et.PreferenceProfile((
            et.Preference.from_pairs(2, []), et.Preference.from_pairs(2, [])))
        common = dict(arena=arena, start=0, outcomes=et.OutcomeSet(2),
                      preferences=prefs)
        with pytest.raises(ValueError, match="not an outcome index 0..1"):
            et.MultiOutcomeGraphGame(kind="priority",
                                     outcome_map={0: 0, 1: outcome}, **common)
        outcome_map = {frozenset({0}): 0, frozenset({1}): 1,
                      frozenset({0, 1}): outcome}
        with pytest.raises(ValueError, match="not an outcome index 0..1"):
            et.MultiOutcomeGraphGame(kind="muller", outcome_map=outcome_map,
                                     **common)


    @pytest.mark.parametrize("kind, outcome_map", [
        ("priority", {0: 0, 1: 1}),
        ("muller", {frozenset({0}): 0, frozenset({1}): 1,
                    frozenset({0, 1}): 1})])
    @pytest.mark.parametrize("outcomes", [et.OutcomeSet(3),
                                          et.OutcomeSet(2, ("x", "y"))])
    def test_preferences_over_other_outcomes_rejected(self, kind,
                                                      outcome_map, outcomes):
        """As ``NormalFormGame`` does, the game refuses preferences over
        another outcome set, also one that differs only in its labels."""
        arena = et.Arena(2, [0], [(0, 1), (1, 0)], [0, 1])
        prefs = et.PreferenceProfile((et.Preference(outcomes, []),) * 2)
        with pytest.raises(ValueError, match="range over the game's outcomes"):
            et.MultiOutcomeGraphGame(
                arena=arena, start=0, kind=kind, outcomes=et.OutcomeSet(2),
                preferences=prefs, outcome_map=outcome_map)

    def test_caller_edit_after_construction_changes_no_answer(self):
        """300 seeded priority games and 300 seeded Muller games whose
        caller rewrites its dict after building the game: each transfer is
        the one of the game built."""
        rng = random.Random(24002)
        for make in (random_priority_game, random_muller_game):
            for _ in range(300):
                game = make(rng)
                mapping = dict(game.outcome_map)
                built = dataclasses.replace(game, outcome_map=mapping)
                for key in mapping:
                    mapping[key] = rng.randrange(game.outcomes.size)
                eq = et.multi_outcome_ne(built)
                expected = et.multi_outcome_ne(game)
                assert (eq.outcome, eq.enforced) == (expected.outcome,
                                                     expected.enforced)
                assert all(map(same_strategy, eq.profile, expected.profile))

    def test_game_is_frozen(self):
        """No field can be set and the map cannot be edited, so the colour
        table built with the game always answers for its fields; the game
        still pickles and deep-copies, rebuilt from its fields."""
        game = jsonio.load(fixture_path("priority_game.json"))
        for field in dataclasses.fields(game):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(game, field.name, getattr(game, field.name))
        with pytest.raises(TypeError):
            game.outcome_map[0] = 1
        with pytest.raises(TypeError):
            hash(game)
        assert dataclasses.replace(game) == game
        for again in (pickle.loads(pickle.dumps(game)), copy.deepcopy(game)):
            assert jsonio.dumps(again) == jsonio.dumps(game)
            assert again.outcome_map == game.outcome_map
            with pytest.raises(TypeError):
                again.outcome_map[0] = 1

    @pytest.mark.parametrize("name", ["priority_game.json",
                                      "muller_game.json"])
    def test_changed_map_gives_an_answer_or_a_value_error(self, name):
        """A map rotated after loading, rebuilt with ``dataclasses.replace``,
        transfers as the document with that map does; an empty map is
        refused by name rather than ending in a KeyError."""
        doc = json.loads(Path(fixture_path(name)).read_text())
        game = jsonio.from_obj(doc)
        n = game.outcomes.size
        rotated = {k: (o + 1) % n for k, o in game.outcome_map.items()}
        eq = et.equilibrium(dataclasses.replace(game, outcome_map=rotated))
        expected = et.equilibrium(jsonio.from_obj(
            {**doc, "r": [[k, (o + 1) % n] for k, o in doc["r"]]}))
        assert (eq.outcome, eq.enforced) == (expected.outcome,
                                             expected.enforced)
        assert all(map(same_strategy, eq.profile, expected.profile))
        with pytest.raises(ValueError, match="no outcome for"):
            dataclasses.replace(game, outcome_map={})

    def test_outcome_lookup_reads_the_map(self):
        """On 300 seeded games of each kind, the one lookup ``_outcome(k)``
        gives every non-empty colour set the outcome of its minimum colour
        (priority) or of the set itself (Muller)."""
        rng = random.Random(28001)
        for make in (random_priority_game, random_muller_game):
            for _ in range(300):
                game = make(rng)
                colors = sorted(game.arena.color_set())
                for k in range(1, 1 << len(colors)):
                    cluster = frozenset(c for i, c in enumerate(colors)
                                        if k >> i & 1)
                    key = min(cluster) if game.kind == "priority" else cluster
                    assert game._outcome(k) == game.outcome_map[key]

    def test_empty_cycle_is_not_a_play(self):
        game = jsonio.load(fixture_path("priority_game.json"))
        with pytest.raises(et.NotDeterminedError, match="empty cluster set"):
            game.outcome_of_play(et.Play((game.start,), ()))

    @pytest.mark.parametrize("kind", ["priority", "muller"])
    def test_numpy_built_game_round_trips(self, kind):
        """numpy integers for the start, the colours of the map's keys and
        its outcomes are stored as Python ints, so the game writes as JSON
        and loads back to the same game; bools, floats and strings are
        still refused as outcomes."""
        import numpy as np
        arena = et.Arena(2, [0], [(0, 1), (1, 0), (1, 1)], [0, 1])
        keys = ([np.int64(0), np.int64(1)] if kind == "priority" else
                [frozenset({np.int64(0)}), frozenset({np.int64(1)}),
                 frozenset(np.arange(2))])
        prefs = et.PreferenceProfile((et.Preference.from_ranking([0, 1]),
                                      et.Preference.from_ranking([1, 0])))
        common = dict(arena=arena, start=np.int64(1), kind=kind,
                      outcomes=et.OutcomeSet(2), preferences=prefs)
        game = et.MultiOutcomeGraphGame(outcome_map=dict(
            zip(keys, np.arange(len(keys)) % 2)), **common)
        assert type(game.start) is int
        assert all(type(o) is int for o in game.outcome_map.values())
        assert all(type(c) is int for k in game.outcome_map
                   for c in ([k] if kind == "priority" else k))
        again = jsonio.loads(jsonio.dumps(game))
        assert (again.start, again.outcome_map) == (1, game.outcome_map)
        assert jsonio.dumps(again) == jsonio.dumps(game)
        for bad in (True, 1.0, "1"):
            with pytest.raises(ValueError, match=f"mapped outcome {bad!r} "
                                                 "is not an outcome index"):
                et.MultiOutcomeGraphGame(
                    outcome_map=dict(zip(keys, [0, bad, 0])), **common)


class TestStartVertex:
    @pytest.mark.parametrize("start", [2, 7, -1])
    def test_out_of_range_start_rejected(self, start):
        arena = et.Arena(2, [0], [(0, 1), (1, 0)], [0, 1])
        with pytest.raises(et.BadIndexError):
            et.solve_parity(arena, start)
        with pytest.raises(et.BadIndexError):
            et.solve_muller(arena, start, [[0]])
        prefs = et.PreferenceProfile((
            et.Preference.from_pairs(1, []), et.Preference.from_pairs(1, [])))
        with pytest.raises(et.BadIndexError):
            et.MultiOutcomeGraphGame(
                arena=arena, start=start, kind="priority",
                outcomes=et.OutcomeSet(1), preferences=prefs,
                outcome_map={0: 0, 1: 0})

    @pytest.mark.parametrize("start", [True, False, 1.0, "1"])
    def test_non_integer_start_rejected(self, start):
        """Once ``solve_parity(arena, True)`` solved from vertex 1."""
        arena = et.Arena(2, [0], [(0, 1), (1, 0)], [0, 1])
        for solve in (et.solve_parity,
                      lambda a, s: et.solve_muller(a, s, [[0]])):
            with pytest.raises(et.BadIndexError,
                               match=f"start vertex: {start!r} is not"):
                solve(arena, start)


class TestMuller:
    def test_memory_bound(self):
        a = et.Arena(2, [0], [(0, 1), (1, 0)], [0, 1])
        assert muller_memory_bound(a) == 4

    def test_states_within_reachable_lar_product(self, rng):
        for _ in range(60):
            arena = random_arena(rng, 5, max_color=3)
            start = rng.randrange(arena.num_vertices)
            _, machine = et.solve_muller(arena, start, [arena.color_set()])
            assert machine.num_states <= len(lar_product(arena, start)[0])
        for _ in range(100):
            game = random_muller_game(rng, max_vertices=6, max_color=4)
            bound = len(lar_product(game.arena, game.start)[0])
            oracle = et.MullerOracle(game)
            for label in range(1 << game.outcomes.size):
                assert oracle.strategy(label).handle.num_states <= bound

    def test_unreachable_colours_add_no_memory(self):
        """The recursion runs on what the start reaches: on the whole
        arena, colour 3 at vertex 4 would make player 2 circle twice before
        staying at vertex 1 (9 states; the LAR product has 7)."""
        a = et.Arena(5, [3], [(0, 1), (1, 1), (1, 3), (2, 1), (2, 3), (2, 4),
                              (3, 0), (4, 3)], [2, 1, 2, 0, 3])
        win_sets = [[0], [3], [0, 1], [0, 3], [1, 3], [2, 3], [0, 1, 2],
                    [0, 1, 3], [0, 2, 3], [1, 2, 3]]
        winner, machine = et.solve_muller(a, 3, win_sets)
        assert (winner, machine.num_states) == (2, 3)
        assert len(lar_product(a, 3)[0]) == 7

    def test_colour_cap(self):
        """Each split lists every subset of its colours: 20 reachable
        colours still solve, 21 raise TooLargeError at once, and colours
        the start does not reach do not count."""
        def ring(n, unreachable=0):
            edges = [(u, (u + d) % n) for u in range(n) for d in (1, 2)]
            edges += [(n + u, 0) for u in range(unreachable)]
            return et.Arena(n + unreachable, range(0, n, 2), edges,
                            range(n + unreachable))

        assert graph_games.MAX_MULLER_COLOURS == 20
        assert et.solve_muller(ring(20), 0, [[0]])[0] == 2
        assert et.solve_muller(ring(3, unreachable=30), 0, [[0]])[0] == 2
        with pytest.raises(et.TooLargeError, match="more than 20 colours"):
            et.solve_muller(ring(21), 0, [[0]])

    def test_missing_win_sets(self):
        arena = et.Arena(2, [0], [(0, 1), (1, 0)], [1, 2])
        with pytest.raises(et.SchemaError, match="win_sets"):
            et.solve_muller(arena, 0, None)

    @pytest.mark.parametrize("win_sets, bad", [
        (["12"], "'12'"), ([[1.0, 2.0]], "1.0"), ([[True, 2]], "True"),
        ([[1], 2], "2")])
    def test_non_integer_win_sets_rejected(self, win_sets, bad):
        """Once a string set was dropped (player 2 won) and 1.0 or True
        read as colour 1."""
        arena = et.Arena(2, [0], [(0, 1), (1, 0)], [1, 2])
        with pytest.raises(et.SchemaError, match=f"win_sets: {bad} is not"):
            et.solve_muller(arena, 0, win_sets)

    def test_start_without_entry_state_rejected(self):
        a = et.Arena(2, [0], [(0, 1), (1, 0), (0, 0)], [1, 2])
        winner, machine = et.solve_muller(a, 0, [[1, 2]])
        other = et.FiniteMemoryStrategy.positional(a, 2, {1: 0})
        assert winner == 1
        assert cluster_colors(a, et.play_of(a, 0, machine, other)) == {1, 2}
        with pytest.raises(ValueError, match="no entry state at vertex 1"):
            et.play_of(a, 1, machine, other)

    def test_winner_beats_positional_and_sampled_machines(self, rng):
        for _ in range(60):
            arena = random_arena(rng, 4, max_color=2)
            start = rng.randrange(arena.num_vertices)
            occ = sorted(arena.color_set())
            subsets = [frozenset(c) for r in range(1, len(occ) + 1)
                       for c in itertools.combinations(occ, r)]
            win_sets = [s for s in subsets if rng.random() < 0.5]
            winner, machine = et.solve_muller(arena, start, win_sets)
            opp = 2 if winner == 1 else 1
            opponents = list(all_positional_strategies(arena, opp))
            opponents += [random_memory_machine(rng, arena, opp, 3)
                          for _ in range(20)]
            for other in opponents:
                play = (et.play_of(arena, start, machine, other)
                        if winner == 1
                        else et.play_of(arena, start, other, machine))
                assert muller_winner_of_play(arena, play, win_sets) == winner

    def test_dual_game_swaps_the_winner(self, rng):
        # complementing the winning sets AND swapping vertex ownership gives
        # the same game with the players' roles exchanged
        for _ in range(40):
            arena = random_arena(rng, 3, max_color=2)
            start = rng.randrange(arena.num_vertices)
            occ = sorted(arena.color_set())
            subsets = [frozenset(c) for r in range(1, len(occ) + 1)
                       for c in itertools.combinations(occ, r)]
            win_sets = [s for s in subsets if rng.random() < 0.5]
            complement = [s for s in subsets if s not in win_sets]
            swapped = et.Arena(
                arena.num_vertices,
                set(range(arena.num_vertices)) - arena.owned,
                arena.edges, arena.colors)
            w_direct, _ = et.solve_muller(arena, start, win_sets)
            w_dual, _ = et.solve_muller(swapped, start, complement)
            assert {w_direct, w_dual} == {1, 2}


def muller_machines(rng, count):
    """Seeded Muller games on ``random_arena``s, each with a ``solve_muller``
    machine for win_sets drawn from its colour sets and a ``MullerOracle``
    machine for every label."""
    for _ in range(count):
        game = random_muller_game(rng, max_vertices=6, max_color=3)
        win_sets = [k for k in game.outcome_map if rng.random() < 0.5]
        yield game, et.solve_muller(game.arena, game.start, win_sets)[1]
        oracle = et.MullerOracle(game)
        for label in range(1 << game.outcomes.size):
            yield game, oracle.strategy(label).handle


class TestMullerMachineContract:
    """A Muller machine stores only what a play reads: at the player's
    own states the edge it takes, -1 on every other edge."""

    def test_own_states_store_only_their_move(self, rng):
        unused = 0
        for game, machine in muller_machines(rng, 80):
            arena = game.arena
            for v, out, k in zip(machine.vertex, machine.succ, machine.move):
                assert len(out) == len(arena.succ[v])
                own = arena.owner(v) == machine.player
                assert (k >= 0) == own
                for e, t in enumerate(out):
                    if own and e != k:
                        assert t == -1
                        unused += 1
                    else:
                        assert 0 <= t < machine.num_states
                        assert machine.vertex[t] == arena.succ[v][e]
        assert unused > 100

    def test_plays_and_deviations_match_the_references(self, rng):
        for i, (game, machine) in enumerate(muller_machines(rng, 80)):
            arena, deviator = game.arena, 3 - machine.player
            opponent = random_memory_machine(random.Random(i), arena,
                                             deviator, 1 + i % 3)
            pair = ((machine, opponent) if machine.player == 1
                    else (opponent, machine))
            assert (et.play_of(arena, game.start, *pair)
                    == reference_play(arena, game.start, *pair))
            assert (et.achievable_deviation_outcomes(game, machine, deviator)
                    == reference_deviation_outcomes(game, machine, deviator))


class TestDeviationOutcomes:
    def test_contains_all_positional_deviation_outcomes(self, rng):
        for _ in range(40):
            game = random_priority_game(rng, max_vertices=4)
            eq = et.multi_outcome_ne(game)
            for deviator, fixed in ((1, eq.strategy_2.handle),
                                    (2, eq.strategy_1.handle)):
                reachable = et.achievable_deviation_outcomes(
                    game, fixed, deviator)
                assert eq.outcome in reachable
                for dev in all_positional_strategies(game.arena, deviator):
                    play = (et.play_of(game.arena, game.start, dev, fixed)
                            if deviator == 1
                            else et.play_of(game.arena, game.start, fixed, dev))
                    assert game.outcome_of_play(play) in reachable


def sized_game(rng, kind, n_vertices, n_colors, n_out=8):
    """A game shaped like the benchmark's arenas: a shuffled Hamiltonian
    cycle plus up to two random edges per vertex, random linear orders."""
    order = list(range(n_vertices))
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n_vertices]) for i in order}
    edges |= {(u, w) for u in range(n_vertices)
              for w in rng.sample(range(n_vertices), rng.randint(0, 2))}
    if kind == "priority":
        colors = [rng.randrange(n_colors) for _ in range(n_vertices)]
    else:
        colors = [u % n_colors for u in range(n_vertices)]
        rng.shuffle(colors)
    arena = et.Arena(n_vertices, [u for u in range(n_vertices)
                                  if rng.random() < 0.5], sorted(edges), colors)
    rankings = [rng.sample(range(n_out), n_out) for _ in range(2)]
    prefs = et.PreferenceProfile(tuple(et.Preference.from_ranking(r)
                                       for r in rankings))
    occ = sorted(arena.color_set())
    outcome_map = ({c: rng.randrange(n_out) for c in occ}
                   if kind == "priority" else
                   {frozenset(combo): rng.randrange(n_out)
                    for r in range(1, len(occ) + 1)
                    for combo in itertools.combinations(occ, r)})
    return et.MultiOutcomeGraphGame(
        arena=arena, start=rng.randrange(n_vertices), kind=kind,
        outcomes=et.OutcomeSet(n_out), preferences=prefs,
        outcome_map=outcome_map)


class TestDeviationSearch:
    """The nested SCC decomposition against one Tarjan run per colour or
    colour subset (``reference_deviation_outcomes``)."""

    @staticmethod
    def check(oracle, fixed, deviator, rng):
        game = oracle.game
        reference = reference_deviation_outcomes(game, fixed, deviator)
        assert et.achievable_deviation_outcomes(game, fixed, deviator) == reference
        n = game.outcomes.size
        betters = [set(), set(range(n))] + [{o} for o in range(n)]
        betters += [{o for o in range(n) if rng.random() < 0.5}
                    for _ in range(3)]
        for better in betters:
            found = oracle.better_deviation(fixed, deviator,
                                            sum(1 << o for o in better))
            if reference & better:
                assert found in reference & better
            else:
                assert found is None
        return reference

    def test_random_games_against_memory_machines(self, rng):
        sizes = []
        for i in range(1200):
            game = (random_priority_game(rng, max_vertices=10, max_outcomes=6)
                    if i % 2 else
                    random_muller_game(rng, max_vertices=6, max_color=3,
                                       max_outcomes=6))
            fixed_player = rng.choice((1, 2))
            fixed = random_memory_machine(rng, game.arena, fixed_player,
                                          rng.randint(1, 4))
            sizes.append(len(self.check(game.backend(), fixed,
                                        3 - fixed_player, rng)))
            other = random_memory_machine(random.Random(i), game.arena,
                                          3 - fixed_player, 2)
            pair = (fixed, other) if fixed_player == 1 else (other, fixed)
            assert (et.play_of(game.arena, game.start, *pair)
                    == reference_play(game.arena, game.start, *pair))
        assert min(sizes) >= 1 and sum(s > 2 for s in sizes) > 100

    def test_benchmark_sized_arenas(self, rng):
        for kind, n_vertices, n_colors in (("priority", 600, 16),
                                           ("muller", 20, 6)):
            for _ in range(2):
                game = sized_game(rng, kind, n_vertices, n_colors)
                oracle = game.backend()
                eq = et.multi_outcome_ne(game)
                play = et.play_of(game.arena, game.start, *eq.profile)
                assert play == reference_play(game.arena, game.start,
                                              *eq.profile)
                assert game.outcome_of_play(play) == eq.outcome
                for deviator, fixed in ((1, eq.strategy_2.handle),
                                        (2, eq.strategy_1.handle)):
                    assert eq.outcome in self.check(oracle, fixed, deviator, rng)
                fixed = random_memory_machine(rng, game.arena, 1, 3)
                self.check(oracle, fixed, 2, rng)

    def test_arbitrary_positional_strategy_certificate(self, rng):
        """An oracle that hands out arbitrary positional strategies: the
        verifier accepts exactly the profiles no deviation improves, and a
        rejection names a deviator and an outcome they reach and prefer."""

        class Arbitrary(et.PriorityOracle):
            def strategy(self, label):
                player = super().strategy(label).player
                arena = self.game.arena
                moves = {v: rng.choice(arena.succ[v])
                         for v in range(arena.num_vertices)
                         if arena.owner(v) == player}
                self.handed[player] = et.FiniteMemoryStrategy.positional(
                    arena, player, moves)
                return et.OracleStrategy(player, self.handed[player])

        certificates = 0
        for _ in range(300):
            game = sized_game(rng, "priority", 12, 5, n_out=5)
            oracle = Arbitrary(game)
            oracle.handed = {}
            try:
                eq = et.equilibrium(oracle, game.preferences)
            except et.NotDeterminedError as exc:
                if exc.deviator is None:
                    continue
                certificates += 1
                fixed = oracle.handed[3 - exc.deviator]
                played = game.outcome_of_play(et.play_of(
                    game.arena, game.start, oracle.handed[1], oracle.handed[2]))
                assert game.preferences[exc.deviator - 1].less(played,
                                                               exc.outcome)
                assert exc.outcome in reference_deviation_outcomes(
                    game, fixed, exc.deviator)
                assert f"player {exc.deviator}" in str(exc)
                assert f"outcome {exc.outcome}" in str(exc)
                continue
            for deviator, fixed in ((1, eq.strategy_2.handle),
                                    (2, eq.strategy_1.handle)):
                pref = game.preferences[deviator - 1]
                assert not any(pref.less(eq.outcome, o) for o in
                               reference_deviation_outcomes(game, fixed,
                                                            deviator))
        assert certificates > 20


class TestMultiOutcomeNE:
    def check_stability(self, game, eq, rng, n_machines=50):
        for deviator, fixed in ((1, eq.strategy_2.handle),
                                (2, eq.strategy_1.handle)):
            pref = game.preferences[deviator - 1]
            deviations = list(all_positional_strategies(game.arena, deviator))
            deviations += [random_memory_machine(rng, game.arena, deviator, 3)
                           for _ in range(n_machines)]
            for dev in deviations:
                play = (et.play_of(game.arena, game.start, dev, fixed)
                        if deviator == 1
                        else et.play_of(game.arena, game.start, fixed, dev))
                assert not pref.less(eq.outcome, game.outcome_of_play(play))

    def test_priority_games_positional_ne(self, rng):
        for _ in range(25):
            game = random_priority_game(rng)
            eq = et.multi_outcome_ne(game)
            assert one_state_per_vertex(eq.strategy_1.handle)
            assert one_state_per_vertex(eq.strategy_2.handle)
            assert eq.counter.winner_calls <= game.outcomes.size
            assert eq.counter.strategy_calls <= 2
            self.check_stability(game, eq, rng)

    def test_muller_games_finite_memory_ne(self, rng):
        for _ in range(15):
            game = random_muller_game(rng)
            eq = et.multi_outcome_ne(game)
            assert isinstance(eq.strategy_1.handle, et.FiniteMemoryStrategy)
            assert isinstance(eq.strategy_2.handle, et.FiniteMemoryStrategy)
            assert eq.counter.winner_calls <= game.outcomes.size
            self.check_stability(game, eq, rng)

    def test_cyclic_preferences_rejected(self, rng):
        game = random_priority_game(rng)
        cyc = et.Preference.from_pairs(
            game.outcomes.size,
            [(0, 0)])
        bad = et.MultiOutcomeGraphGame(
            arena=game.arena, start=game.start, kind="priority",
            outcomes=game.outcomes,
            preferences=et.PreferenceProfile((cyc, cyc)),
            outcome_map=game.outcome_map)
        with pytest.raises(et.UnboundedHeightError):
            et.multi_outcome_ne(bad)

    def test_validation(self):
        arena = et.Arena(1, [0], [(0, 0)], [0])
        prefs = et.PreferenceProfile((
            et.Preference.from_pairs(1, []), et.Preference.from_pairs(1, [])))
        with pytest.raises(ValueError):
            et.MultiOutcomeGraphGame(
                arena=arena, start=0, kind="priority",
                outcomes=et.OutcomeSet(1), preferences=prefs,
                outcome_map={})  # colour 0 unmapped
        with pytest.raises(ValueError):
            et.MultiOutcomeGraphGame(
                arena=arena, start=0, kind="muller",
                outcomes=et.OutcomeSet(1), preferences=prefs,
                outcome_map={})  # cluster {0} unmapped
