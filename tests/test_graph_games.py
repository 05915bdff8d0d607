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
from eqtransfer import errors, graph_games, jsonio
from conftest import (fixture_path, memory_machine, random_acyclic_preference,
                      random_arena, random_memory_machine, random_muller_game,
                      random_priority_game)
from limits import chain_arena
from reference_graph import (all_positional_strategies, arena_edges,
                             cluster_colors, lar_muller_winners, lar_product,
                             muller_memory_bound,
                             muller_winner_of_play, parity_winner_of_play,
                             recursive_regions, reference_deviation_outcomes,
                             reference_play, region_certificate,
                             residual_graph,
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
        assert (a.owned, a.succ, a.colors) == ({0}, ((1,), (0,)), (0, 1))
        assert all(type(x) is int for x in (a.num_vertices, *a.colors))

    @pytest.mark.parametrize("kind", ["priority", "muller"])
    def test_repeated_edges_keep_first_occurrences(self, kind):
        """Construction drops repeated edges in time linear in the edges,
        keeping each vertex's successors in first-occurrence order: the
        game's equilibrium is its deduplicated twin's, strategies
        included."""
        prefs = et.PreferenceProfile((et.Preference.from_pairs(2, [(0, 1)]),
                                      et.Preference.from_pairs(2, [(1, 0)])))
        outcome_map = ({0: 0, 1: 1, 2: 0} if kind == "priority" else
                       {frozenset(c): len(c) % 2 for r in (1, 2, 3)
                        for c in itertools.combinations(range(3), r)})
        results = []
        for edges in ([(0, 2), (0, 1), (0, 2), (1, 0), (2, 2), (1, 0),
                       (2, 0), (2, 2)],
                      [(0, 2), (0, 1), (1, 0), (2, 2), (2, 0)]):
            arena = et.Arena(3, [0], edges, [0, 1, 2])
            assert arena.succ == ((2, 1), (0,), (2, 0))
            results.append(et.equilibrium(et.MultiOutcomeGraphGame(
                arena=arena, start=0, kind=kind, outcomes=et.OutcomeSet(2),
                preferences=prefs, outcome_map=outcome_map)))
        got, want = results
        assert (got.outcome, got.enforced, got.drop, got.probes) == (
            want.outcome, want.enforced, want.drop, want.probes)
        assert all(map(same_strategy, got.profile, want.profile))
        # a dump writes each distinct edge once, grouped by source
        game = et.MultiOutcomeGraphGame(
            arena=et.Arena(3, [0], [(0, 2), (0, 1), (0, 2), (1, 0), (2, 2)],
                           [0, 1, 2]),
            start=0, kind=kind, outcomes=et.OutcomeSet(2), preferences=prefs,
            outcome_map=outcome_map)
        doc = json.loads(jsonio.dumps(game))
        assert doc["edges"] == [[0, 2], [0, 1], [1, 0], [2, 2]]
        again = jsonio.loads(json.dumps(doc)).arena
        assert (again.succ, again.pred) == (game.arena.succ, game.arena.pred)

    def test_stores_each_fact_once(self):
        """An arena keeps its vertex count, colours, successor and
        predecessor lists and owner flags, and builds ``owned`` only when it
        is read: no transfer reads it."""
        a = et.Arena(3, [1, 1], [(0, 1), (1, 2), (2, 0), (0, 1)], [0, 1, 2])
        assert set(vars(a)) == {"num_vertices", "colors", "succ", "pred",
                                "_owner_flags"}
        assert a._owner_flags == (False, True, False)
        assert a.owned == {1} and "owned" in vars(a)
        for name in ("priority_game.json", "muller_game.json"):
            game = jsonio.load(fixture_path(name))
            et.equilibrium(game)  # verified, or it raises
            assert "owned" not in vars(game.arena)

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

    def test_negative_successor_is_refused(self):
        """A machine whose state has a negative successor entry on an edge
        that a play or a deviation follows is refused, naming the state and
        the edge.  Read as a Python index, the entry made ``play_of`` report
        the cycle (1,) while the deviation search reached only outcome 0.
        So is an entry past the last state, once a bare IndexError, and a
        state at another vertex than the edge's target, once read as a
        play (0, 0, ...) along a non-edge."""
        arena = et.Arena(2, [0], [(0, 1), (1, 0), (1, 1)], [0, 1])
        game = et.MultiOutcomeGraphGame(
            arena, 0, "priority", et.OutcomeSet(2), et.PreferenceProfile(
                (et.Preference.from_ranking([0, 1]),
                 et.Preference.from_ranking([1, 0]))), {0: 0, 1: 1})
        cases = [  # the machine, the opponent's strategy, the refused edge
            (et.FiniteMemoryStrategy(1, [0, 1], [[1], [0, -1]], [0, -1],
                                     {0: 0}),
             et.FiniteMemoryStrategy.positional(arena, 2, {1: 1}),
             "player 1's strategy has no successor of state 1 along edge "
             "(1, 1)"),
            (et.FiniteMemoryStrategy(2, [0, 1], [[-3], [0, 1]], [-1, 1],
                                     {0: 0}),
             et.FiniteMemoryStrategy.positional(arena, 1, {}),
             "player 2's strategy has no successor of state 0 along edge "
             "(0, 1)"),
            (et.FiniteMemoryStrategy(1, [0, 1], [[1], [0, 5]], [0, -1],
                                     {0: 0}),
             et.FiniteMemoryStrategy.positional(arena, 2, {1: 1}),
             "player 1's strategy has no successor of state 1 along edge "
             "(1, 1)"),
            (et.FiniteMemoryStrategy(1, [0, 0], [[1], [0, 1]], [0, 0],
                                     {0: 0}),
             et.FiniteMemoryStrategy.positional(arena, 2, {}),
             "player 1's strategy has no successor of state 0 along edge "
             "(0, 1)")]
        for machine, other, message in cases:
            pair = (machine, other) if machine.player == 1 else (other, machine)
            for call in (lambda: et.play_of(arena, 0, *pair),
                         lambda: et.achievable_deviation_outcomes(
                             game, machine, other.player),
                         lambda: game.backend().better_deviation(
                             machine, other.player, 0b11)):
                with pytest.raises(ValueError) as caught:
                    call()
                assert str(caught.value) == message


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

    @staticmethod
    def attractor_calls(monkeypatch):
        """Record each parity attractor call as (region size, whether it
        keeps successor counts), after checking that kept counts are each
        region vertex's successors in the region."""
        calls, real = [], graph_games._attractor

        def spy(succ, pred, owned, region, target, player, count=None):
            calls.append((len(region), count is not None))
            if count is not None:
                assert all(count[v] == sum(w in region for w in succ[v])
                           for v in region)
            return real(succ, pred, owned, region, target, player, count)

        monkeypatch.setattr(graph_games, "_attractor", spy)
        return calls

    def test_regions_across_the_count_split(self, monkeypatch):
        """Arenas of 200 to 1,000 vertices, sparse or built on a cycle:
        their recursions run frames that keep successor counts and frames,
        on under a quarter of the arena, that count afresh."""
        calls = self.attractor_calls(monkeypatch)
        rng = random.Random(3001)
        crossed = 0
        for k in range(40):
            nv = rng.randint(200, 1000)
            edges = {(u, w) for u in range(nv)
                     for w in rng.sample(range(nv), rng.randint(k % 2, 2))}
            if k % 2 == 0:
                order = rng.sample(range(nv), nv)
                edges |= set(zip(order, order[1:] + order[:1]))
            arena = et.Arena(nv, [v for v in range(nv) if rng.random() < 0.5],
                             sorted(edges),
                             [rng.randrange(16) for _ in range(nv)])
            calls.clear()
            regions = et.parity_regions(arena)
            reference = recursive_regions(arena.succ, arena.owned, arena.colors)
            assert regions[:2] == reference[:2]
            assert certify(arena, regions) == []
            assert all(kept for size, kept in calls if 4 * size >= nv)
            crossed += {kept for _, kept in calls} == {True, False}
        assert crossed >= 20

    def test_deep_recursion_past_the_counting_frames(self, monkeypatch):
        """A path walked both ways, colour u at vertex u, player 1 owning
        the even vertices: each frame peels one vertex, so past the 16
        frames that keep counts, frames on large regions count afresh."""
        calls = self.attractor_calls(monkeypatch)
        n = 200
        edges = [(u, u + d) for u in range(n) for d in (-1, 1)
                 if 0 <= u + d < n]
        arena = et.Arena(n, range(0, n, 2), edges, range(n))
        regions = et.parity_regions(arena)
        assert regions[:2] == recursive_regions(arena.succ, arena.owned,
                                                arena.colors)[:2]
        assert certify(arena, regions) == []
        assert sum(kept for _, kept in calls) >= 16
        assert any(4 * size >= n and not kept for size, kept in calls)

    def test_self_loops_cut_and_kept(self, monkeypatch):
        """Self-loops good for their owner, bad ones that the self-cycle
        rule cuts, and bad ones kept as their vertex's only edge, in one
        arena, at sizes on both sides of the count split."""
        calls = self.attractor_calls(monkeypatch)
        rng = random.Random(3002)
        kinds = set()
        for _ in range(150):
            nv = rng.choice([rng.randint(2, 30), rng.randint(200, 400)])
            edges = {(u, u) for u in range(nv) if rng.random() < 0.5}
            alone = {u for u, _ in edges if rng.random() < 0.3}
            edges |= {(u, w) for u in range(nv) if u not in alone
                      for w in rng.sample(range(nv), rng.randint(1, 2))}
            arena = et.Arena(nv, [v for v in range(nv) if rng.random() < 0.5],
                             sorted(edges),
                             [rng.randrange(8) for _ in range(nv)])
            for v, out in enumerate(arena.succ):
                if v in out:
                    good = arena.colors[v] % 2 == (v not in arena.owned)
                    kinds.add("good" if good else
                              "kept" if out == (v,) else "cut")
            regions = et.parity_regions(arena)
            reference = recursive_regions(arena.succ, arena.owned, arena.colors)
            assert regions[:2] == reference[:2]
            assert certify(arena, regions) == []
        assert kinds == {"good", "cut", "kept"}
        assert {kept for _, kept in calls} == {True, False}


def same_strategy(a, b):
    """Equal strategy graphs: states, edges, moves and entry states."""
    return ((a.player, a.vertex, a.succ, a.move, a.entry)
            == (b.player, b.vertex, b.succ, b.move, b.entry))


class TestOracles:
    def test_priority_oracle_matches_fresh_solves(self, rng):
        """One oracle asked every label, in a shuffled order, answers as a
        fresh ``solve_parity`` of each label's colouring, in winner and
        positional strategy: on small random games and on benchmark-shaped
        games of 6 to 300 vertices."""
        games = [random_priority_game(rng) for _ in range(10)]
        games += [sized_game(rng, "priority", rng.randint(6, 300),
                             rng.randint(2, 16), n_out=rng.randint(1, 6))
                  for _ in range(12)]
        for game in games:
            oracle = et.PriorityOracle(game)
            arena = game.arena
            labels = list(range(1 << game.outcomes.size))
            rng.shuffle(labels)
            for label in labels:
                colors = [2 * c + 1 - (label >> game.outcome_map[c] & 1)
                          for c in arena.colors]
                fresh = et.Arena(arena.num_vertices, arena.owned,
                                 arena_edges(arena), colors)
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
                fresh = et.Arena(arena.num_vertices, arena.owned,
                                 arena_edges(arena), arena.colors)
                winner, strategy = et.solve_muller(fresh, game.start, win_sets)
                assert oracle.winner(label) == winner
                answer = oracle.strategy(label)
                assert answer.player == winner
                assert same_strategy(answer.handle, strategy)

    def check_reuse(self, monkeypatch, oracle_type, solver, games):
        """Run each game's transfer with ``oracle_type``, spying on its
        ``_solve_label`` and on the module's ``solver``: each distinct label
        is solved at most once, by one solver run; both strategy labels were
        probed, except a full mask that no probe accepted; and every label
        queried gets the winner and strategy of a fresh oracle's solve of
        that label.  Returns the labels queried that no solve ran for."""
        runs, solved, asked = [], [], []
        real_solver = getattr(graph_games, solver)
        monkeypatch.setattr(graph_games, solver, lambda *args: runs.append(
            args) or real_solver(*args))
        real_label = oracle_type._solve_label
        monkeypatch.setattr(oracle_type, "_solve_label", lambda oracle, label:
                            solved.append(label) or real_label(oracle, label))
        for name in ("winner", "strategy"):
            real = getattr(oracle_type, name)

            def recording(oracle, label, name=name, real=real):
                asked.append((name, label, answer := real(oracle, label)))
                return answer

            monkeypatch.setattr(oracle_type, name, recording)
        unsolved = 0
        for game in games:
            for log in (runs, solved, asked):
                log.clear()
            eq = et.multi_outcome_ne(game)
            queries, labels = list(asked), [label for _, label, _ in asked]
            probed = {label for name, label, _ in asked if name == "winner"}
            full = (1 << game.outcomes.size) - 1
            assert len(probed) <= game.outcomes.size
            assert set(labels) <= probed | {full}
            assert len(runs) == len(solved) == len(set(solved))
            assert set(solved) <= set(labels)
            unsolved += len(set(labels) - set(solved))
            for name, label, answer in queries:
                fresh = getattr(oracle_type(game), name)(label)
                assert (answer == fresh if name == "winner" else
                        same_strategy(answer.handle, fresh.handle))
            assert all(map(same_strategy, (strategy.handle for name, _, strategy
                                           in queries if name == "strategy"),
                           eq.profile))
        return unsolved

    def test_muller_strategy_queries_reuse_probe_solves(self, rng,
                                                       monkeypatch):
        """A Muller transfer runs McNaughton's recursion at most once per
        distinct label, and a label that agrees with a solved one on every
        outcome of a cluster set is answered from it."""
        games = [random_muller_game(rng, max_vertices=8, max_color=3,
                                    max_outcomes=6) for _ in range(40)]
        assert self.check_reuse(monkeypatch, et.MullerOracle, "_mcnaughton",
                                games) > 0

    def test_strategy_queries_reuse_probe_solves(self, rng, monkeypatch):
        """A priority transfer prepares its arena once and runs Zielonka's
        solve at most once per distinct label; labels answered from an
        earlier solve that read the same colours equal fresh solves."""
        games = [random_priority_game(rng, max_vertices=10, max_outcomes=6)
                 for _ in range(40)]
        assert self.check_reuse(monkeypatch, et.PriorityOracle,
                                "_solve_graph", games) > 0
        prepared, real_prepare = [], graph_games._Prepared
        monkeypatch.setattr(graph_games, "_Prepared", lambda *args:
                            prepared.append(args) or real_prepare(*args))
        for game in games:
            et.multi_outcome_ne(game)
        assert len(prepared) == len(games)

    def test_reused_probe_answers_equal_fresh_solves(self, rng):
        """Along the exact label order a transfer probes, then its two
        strategy labels, every winner and positional strategy equals a fresh
        ``solve_parity`` of that label's colouring: on small random games,
        benchmark-shaped games of 250-600 vertices and both chain families
        (each vertex its own colour, the two-cycle family's private vertices
        recoloured above the chain's), and some labels are answered from an
        earlier solve."""
        games = [random_priority_game(rng, max_vertices=10, max_outcomes=6)
                 for _ in range(60)]
        games += [sized_game(rng, "priority", rng.randint(250, 600), 16)
                  for _ in range(4)]
        for i in range(16):
            n = rng.randint(10, 48)
            chain = (shuffled_chain_arena if i % 2 else two_cycle_chain_arena)(
                n, rng)
            arena = et.Arena(chain.num_vertices, chain.owned,
                             arena_edges(chain), [*chain.colors[:n], *range(
                                 n, chain.num_vertices)])
            n_out = rng.randint(2, 8)
            games.append(et.MultiOutcomeGraphGame(
                arena, rng.randrange(arena.num_vertices), "priority",
                et.OutcomeSet(n_out), et.PreferenceProfile(tuple(
                    et.Preference.from_ranking(rng.sample(range(n_out), n_out))
                    for _ in range(2))),
                {c: rng.randrange(n_out) for c in arena.colors}))
        queried = solved = 0
        for game in games:
            oracle = et.PriorityOracle(game)
            result = et.run_transfer(oracle, game.preferences)
            labels = [label for label, _ in result.probes]
            labels += [result.enforced, result.drop]
            arena = game.arena
            for label in labels:
                colors = [2 * c + 1 - (label >> game.outcome_map[c] & 1)
                          for c in arena.colors]
                fresh = et.Arena(arena.num_vertices, arena.owned,
                                 arena_edges(arena), colors)
                winner, strategy = et.solve_parity(fresh, game.start)
                assert oracle.winner(label) == winner
                assert same_strategy(oracle.strategy(label).handle, strategy)
            queried += len(set(labels))
            solved += len(oracle._solved)
        assert solved < queried

    def test_probe_on_unread_colours_runs_no_solve(self, monkeypatch):
        """Vertex 0 is player 1's, with only a self-loop of colour 0, and
        the vertices of colours 1 and 2 lead only to it.  The first probe
        (outcome 2 dropped) is won by the self-cycle rule, which reads only
        colour 0; so the second probe, which also drops outcome 1, runs no
        solve, and the third, which drops outcome 0, does."""
        runs, real = [], graph_games._solve_graph
        monkeypatch.setattr(graph_games, "_solve_graph",
                            lambda *args: runs.append(args) or real(*args))
        arena = et.Arena(3, [0], [(0, 0), (1, 0), (2, 0)], [0, 1, 2])
        game = et.MultiOutcomeGraphGame(
            arena, 1, "priority", et.OutcomeSet(3), et.PreferenceProfile((
                et.Preference.from_ranking([2, 1, 0]),
                et.Preference.from_ranking([0, 1, 2]))), {0: 0, 1: 1, 2: 2})
        oracle = et.PriorityOracle(game)
        solves = []
        for label in (0b011, 0b001, 0b000):
            winner = oracle.winner(label)
            solves.append(len(runs))
            assert winner == et.solve_parity(et.Arena(
                3, [0], arena_edges(arena),
                [2 * c + 1 - (label >> c & 1) for c in range(3)]), 1)[0]
            runs.clear()
        assert solves == [1, 0, 1]
        result = et.run_transfer(et.PriorityOracle(game), game.preferences)
        assert [label for label, _ in result.probes] == [0b011, 0b001, 0b000]
        assert len(runs) == 2

    def test_probe_on_run_ending_colour_is_solved_again(self, monkeypatch):
        """On the cycle 0 -> 1 -> 2 -> 0 with the chord 1 -> 0, colours 0, 1
        and 2 mapped to outcomes 0, 1 and 2, player 1 winning colour 0: when
        colour 1's parity differs from colour 0's, the first frame's target
        is vertex 0 and player 1 moves 1 -> 0; when it agrees, colour 1 joins
        that run and player 1 moves 1 -> 2.  The first solve read colour 1
        as the colour that ended its run, so a label that changes only
        colour 1 runs a new solve, which a fresh solve confirms."""
        runs, real = [], graph_games._solve_graph
        monkeypatch.setattr(graph_games, "_solve_graph",
                            lambda *args: runs.append(args) or real(*args))
        arena = et.Arena(3, [0, 1], [(0, 1), (1, 2), (1, 0), (2, 0)],
                         [0, 1, 2])
        game = et.MultiOutcomeGraphGame(
            arena, 0, "priority", et.OutcomeSet(3), et.PreferenceProfile((
                et.Preference.from_ranking([2, 1, 0]),
                et.Preference.from_ranking([0, 1, 2]))), {0: 0, 1: 1, 2: 2})
        oracle = et.PriorityOracle(game)
        for label, move in ((0b001, 0), (0b011, 2)):
            strategy = oracle.strategy(label).handle
            assert arena.succ[1][strategy.move[1]] == move
            fresh = et.Arena(3, [0, 1], arena_edges(arena),
                             [2 * c + 1 - (label >> c & 1) for c in range(3)])
            assert same_strategy(strategy, et.solve_parity(fresh, 0)[1])
        assert len(runs) == 4  # two oracle solves, two fresh ones

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

        assert errors.MAX_MULLER_COLOURS == 20
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
        # a list entry too short to reach the start vertex
        short = et.FiniteMemoryStrategy(1, [0], [[0]], [0], [0])
        with pytest.raises(ValueError, match="no entry state at vertex 1"):
            et.play_of(a, 1, short, other)
        one = et.Preference.from_pairs(1, [])
        game = et.MultiOutcomeGraphGame(
            arena=a, start=1, kind="priority", outcomes=et.OutcomeSet(1),
            preferences=et.PreferenceProfile((one, one)),
            outcome_map={1: 0, 2: 0})
        with pytest.raises(ValueError, match="no entry state at vertex 1"):
            et.achievable_deviation_outcomes(game, short, 2)

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
                arena_edges(arena), arena.colors)
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

    @pytest.fixture(autouse=True)
    def visits(self, monkeypatch):
        """Count the states the SCC kernel visits, summed over its calls."""
        self.visits, real = [0], graph_games._cyclic_sccs

        def spy(succ, part, *flags):
            self.visits[0] += len(part)
            return real(succ, part, *flags)

        monkeypatch.setattr(graph_games, "_cyclic_sccs", spy)

    def check(self, oracle, fixed, deviator, rng):
        """Exact set and stop-early queries against the reference; a
        priority query visits at most (runs of unwanted colours + 1) times
        the reachable states."""
        game = oracle.game
        reference = reference_deviation_outcomes(game, fixed, deviator)
        assert et.achievable_deviation_outcomes(game, fixed, deviator) == reference
        n = game.outcomes.size
        reached = len(residual_graph(game, fixed, deviator)[0])
        colours = (sorted(game.arena.color_set())
                   if game.kind == "priority" else [])
        colour_outcomes = [game.outcome_map[c] for c in colours]
        betters = [set(), set(range(n))] + [{o} for o in range(n)]
        betters += [{o for o in range(n) if rng.random() < 0.5}
                    for _ in range(3)]
        for better in betters:
            self.visits[0] = 0
            found = oracle.better_deviation(fixed, deviator,
                                            sum(1 << o for o in better))
            if reference & better:
                assert found in reference & better
            else:
                assert found is None
            unwanted = [o not in better for o in colour_outcomes]
            runs = sum(a > b for a, b in zip(unwanted, [False] + unwanted))
            assert not colours or self.visits[0] <= (runs + 1) * reached
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

    def test_chain_families_against_memory_machines(self, rng):
        """Both chain families at 10-60 vertices, each vertex its own colour
        (the two-cycle family's private vertices recoloured n..2n-1, still
        above every chain colour) mapped to a random outcome, against memory
        machines that mostly move along the chain."""
        sizes, reached = [], []
        for i in range(40):
            n = rng.randint(10, 60)
            arena = (shuffled_chain_arena if i % 2 else two_cycle_chain_arena)(
                n, rng)
            arena = et.Arena(arena.num_vertices, arena.owned,
                             arena_edges(arena), [*arena.colors[:n], *range(
                                 n, arena.num_vertices)])
            n_out = rng.randint(2, 6)
            prefs = et.PreferenceProfile(tuple(
                et.Preference.from_ranking(rng.sample(range(n_out), n_out))
                for _ in range(2)))
            game = et.MultiOutcomeGraphGame(
                arena, rng.randrange(arena.num_vertices), "priority",
                et.OutcomeSet(n_out), prefs,
                {c: rng.randrange(n_out) for c in arena.colors})
            fixed_player, states = rng.choice((1, 2)), rng.randint(1, 3)
            fixed = memory_machine(arena, fixed_player, states, {
                (m, v): rng.randrange(states) for m in range(states)
                for v in range(arena.num_vertices)}, {  # mostly forward
                (m, v): (v + 1) % n if v < n and rng.random() < 0.9
                else rng.choice(arena.succ[v])
                for m in range(states) for v in range(arena.num_vertices)})
            reached.append(len(residual_graph(game, fixed,
                                              3 - fixed_player)[0]))
            sizes.append(len(self.check(game.backend(), fixed,
                                        3 - fixed_player, rng)))
        assert sum(s > 2 for s in sizes) > 10 and max(reached) > 60

    def test_priority_search_drops_a_run_of_unwanted_colours_at_once(self):
        """A bidirectional ring of n vertices, all the deviator's, whose n-1
        lowest colours map to an unwanted outcome and whose top colour to
        the wanted one: after the whole ring, one pass on the top vertex
        alone settles the query.  Peeling one colour a level would visit
        about n^2/2 states."""
        n = 40
        arena = et.Arena(n, range(n), [(u, (u + d) % n) for u in range(n)
                                       for d in (1, -1)], range(n))
        prefs = et.PreferenceProfile((et.Preference.from_ranking([0, 1]),
                                      et.Preference.from_ranking([1, 0])))
        game = et.MultiOutcomeGraphGame(arena, 0, "priority", et.OutcomeSet(2),
                                        prefs, {c: int(c == n - 1)
                                                for c in range(n)})
        fixed = et.FiniteMemoryStrategy.positional(arena, 2, {})
        assert game.backend().better_deviation(fixed, 1, 0b10) is None
        assert self.visits[0] <= 2 * n
        self.visits[0] = 0
        assert et.achievable_deviation_outcomes(game, fixed, 1) == {0}
        assert self.visits[0] <= 2 * n

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


def refused_graph_call(case):
    """The call that ``case`` names, on the fixtures' games or a one-vertex
    arena."""
    priority = jsonio.load(fixture_path("priority_game.json"))
    muller = jsonio.load(fixture_path("muller_game.json"))
    loop = et.Arena(1, [0], [(0, 0)], [0])
    s1 = et.FiniteMemoryStrategy.positional(loop, 1, {})
    s2 = et.FiniteMemoryStrategy.positional(loop, 2, {})
    return {
        "no vertex": lambda: et.Arena(0, [], [], []),
        "colour count": lambda: et.Arena(1, [0], [(0, 0)], [0, 1]),
        "play players": lambda: et.play_of(loop, 0, s2, s1),
        "play move": lambda: et.play_of(loop, 0, et.FiniteMemoryStrategy(
            1, [0], [[0]], [-1], {0: 0}), s2),
        "kind": lambda: dataclasses.replace(priority, kind="parity"),
        "players": lambda: dataclasses.replace(priority, preferences=(
            et.PreferenceProfile(priority.preferences.prefs * 2))),
        "oracle kind": lambda: et.PriorityOracle(muller),
        "deviator": lambda: et.achievable_deviation_outcomes(
            priority, et.FiniteMemoryStrategy.positional(
                priority.arena, 1, {}), 1),
        "int key": lambda: dataclasses.replace(
            muller, outcome_map={3: 0, **muller.outcome_map}),
        "tuple key": lambda: dataclasses.replace(
            muller, outcome_map={(0, 1): 0, **muller.outcome_map}),
    }[case]


@pytest.mark.parametrize("case, message", [
    ("no vertex", "arena needs at least one vertex"),
    ("colour count", "one colour per vertex required"),
    ("play players", "play_of expects a player-1 and a player-2 strategy"),
    ("play move", "the owner's strategy has no move at vertex 0"),
    ("kind", "unknown kind 'parity'"),
    ("players", "two players required"),
    ("oracle kind", "priority oracle needs a priority game"),
    ("deviator", "fixed player and deviator must differ"),
    ("int key", "outcome_map key 3 is not a colour set"),
    ("tuple key", "outcome_map key (0, 1) is not a colour set")])
def test_refused_inputs(case, message):
    """Each a ValueError naming what is wrong; the two keys once ended in
    a bare TypeError."""
    with pytest.raises(ValueError) as caught:
        refused_graph_call(case)()
    assert (type(caught.value), str(caught.value)) == (ValueError, message)

