"""Acceptance suite: one test per headline guarantee, at desk scale.

Each test prints a single pass line so the suite output doubles as a
checklist.  All bounds are exact — zero tolerance.
"""

import itertools
import random

import eqtransfer as et
from eqtransfer.normal_form import (_eliminate_dominated_outcomes,
                                   _minimax_transfer)
from eqtransfer.prefs import _lift_less
from conftest import (random_acyclic_preference, random_arena,
                      random_determined_structure, random_memory_machine,
                      random_structure)
from reference_graph import all_positional_strategies, parity_winner_of_play
from reference_normal_form import (can_enforce, derive_win_lose,
                                   is_determined_by_enforcement,
                                   winning_strategy)
from test_corpus import letters
from test_graph_games import (brute_parity_winner, one_state_per_vertex,
                              random_muller_game, random_priority_game)


def report(line):
    print(f"PASS: {line}")


def subsets(n):
    for r in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n), r))


def random_profile(rng, n_outcomes, players=2):
    return et.PreferenceProfile(tuple(
        random_acyclic_preference(rng, n_outcomes) for _ in range(players)))


def test_c01_transfer_returns_ne_within_call_budget():
    rng = random.Random(101)
    for _ in range(200):
        st = random_determined_structure(rng)
        game = et.NormalFormGame(st, random_profile(rng, st.outcomes.size))
        profile, counter = et.transfer_equilibrium(game)
        assert et.is_nash_equilibrium(game, profile)
        assert counter.winner_calls <= st.outcomes.size
        assert counter.strategy_calls <= 2
    report("criterion 1 — 200/200 transfers are equilibria, "
           "winner calls <= n, strategy calls <= 2")


def test_c02_lift_order_laws():
    linear = list(range(6))
    pairs = [(a, b) for a in subsets(6) for b in subsets(6)]
    for a, b in pairs:
        lex = tuple(0 if o in a else 1 for o in linear) \
            < tuple(0 if o in b else 1 for o in linear)
        assert _lift_less(linear, a, b) == lex
        if a == b:
            assert not _lift_less(linear, a, b)
        else:
            assert _lift_less(linear, a, b) != _lift_less(linear, b, a)
    small = [0, 1, 2, 3, 4]
    a, b = {1, 2, 3, 4}, {1, 3}
    word = lambda s: "".join("0" if o in s else "1" for o in small)
    assert (word(a), word(b)) == ("10000", "10101")
    assert _lift_less(small, a, b)
    report("criterion 2 — lift is the lexicographic order on complement "
           "words, exhaustive over 6 outcomes; worked example 10000 < 10101")


def test_c03_winning_strategy_iff_ne():
    rng = random.Random(103)
    prefs = et.PreferenceProfile((
        et.Preference.from_pairs(2, [(1, 0)]),
        et.Preference.from_pairs(2, [(0, 1)])))
    for _ in range(200):
        st = random_structure(rng, (rng.randint(1, 5), rng.randint(1, 5)), 2)
        w = derive_win_lose(st, 0b01)
        has_winner = winning_strategy(w) is not None
        assert has_winner == bool(
            et.find_all_ne(et.NormalFormGame(st, prefs)))
    report("criterion 3 — 200/200 win-lose games: winning strategy "
           "exists iff a Nash equilibrium exists")


def test_c04_three_way_determinacy_equivalence():
    rng = random.Random(104)
    for _ in range(100):
        st = random_structure(rng, (rng.randint(1, 4), rng.randint(1, 4)),
                              rng.randint(1, 4))
        n = st.outcomes.size
        via_winners = all(
            winning_strategy(derive_win_lose(st, label)) is not None
            for label in range(1 << n))
        via_cones = all(
            can_enforce(st, 1, label)
            or can_enforce(st, 2, label ^ (1 << n) - 1)
            for label in range(1 << n))
        assert et.is_determined(st) == via_winners == via_cones
        assert is_determined_by_enforcement(st) == via_cones
    report("criterion 4 — 100/100 structures: determinacy, per-label "
           "winners, and enforce-or-exclude all agree")


def _eligible_elimination_instance(rng):
    while True:
        st = random_structure(
            rng, (rng.randint(2, 4), rng.randint(2, 4)), rng.randint(2, 5))
        n = st.outcomes.size
        r1, r2 = list(range(n)), list(range(n))
        rng.shuffle(r1)
        rng.shuffle(r2)
        p1, p2 = et.Preference.from_ranking(r1), et.Preference.from_ranking(r2)
        game = et.NormalFormGame(st, et.PreferenceProfile((p1, p2)))
        for e in range(st.strategy_counts[0]):
            reached = {st.outcome((e, j))
                       for j in range(st.strategy_counts[1])}
            below = [o for o in range(n)
                     if all(p1.less(o, x) for x in reached)]
            if below:
                return game, e, rng.choice(below)


def test_c05_dominated_outcome_elimination_preserves_ne():
    rng = random.Random(105)
    for _ in range(100):
        game, e, o = _eligible_elimination_instance(rng)
        reduced = _eliminate_dominated_outcomes(game, e, o)
        for profile in et.find_all_ne(reduced):
            assert et.is_nash_equilibrium(game, profile)
    report("criterion 5 — 100/100 eliminations: every equilibrium of the "
           "reduced game is one of the original")


def test_c06_minimax_transfer_unique_value():
    rng = random.Random(106)
    for _ in range(100):
        st = random_determined_structure(rng)
        ranking = list(range(st.outcomes.size))
        rng.shuffle(ranking)
        p1 = et.Preference.from_ranking(ranking)
        game = et.NormalFormGame(
            st, et.PreferenceProfile((p1, p1.inverse())))
        profile = _minimax_transfer(game)
        assert et.is_nash_equilibrium(game, profile)
        value = st.outcome(profile)
        for other in et.find_all_ne(game):
            assert st.outcome(other) == value
    report("criterion 6 — 100/100 inverse-preference games: minimax profile "
           "is an equilibrium and all equilibria share its outcome")


def test_c07_parity_solver_against_brute_force():
    for colors, expected in (([2], 1), ([1], 2)):
        arena = et.Arena(1, [0], [(0, 0)], colors)
        winner, _ = et.solve_parity(arena, 0)
        assert winner == expected
    rng = random.Random(107)
    for _ in range(200):
        arena = random_arena(rng, 4, max_color=4)
        start = rng.randrange(arena.num_vertices)
        winner, strat = et.solve_parity(arena, start)
        assert winner == brute_parity_winner(arena, start)
        opp = 2 if winner == 1 else 1
        for other in all_positional_strategies(arena, opp):
            play = (et.play_of(arena, start, strat, other) if winner == 1
                    else et.play_of(arena, start, other, strat))
            assert parity_winner_of_play(arena, play) == winner
    report("criterion 7 — 200/200 arenas (plus 1-vertex even/odd): parity "
           "winner matches brute force and the strategy defeats all opponents")


def _stable(game, eq, rng, sampled_machines):
    for deviator, fixed in ((1, eq.strategy_2.handle),
                            (2, eq.strategy_1.handle)):
        pref = game.preferences[deviator - 1]
        deviations = list(all_positional_strategies(game.arena, deviator))
        deviations += [random_memory_machine(rng, game.arena, deviator, 3)
                       for _ in range(sampled_machines)]
        for dev in deviations:
            play = (et.play_of(game.arena, game.start, dev, fixed)
                    if deviator == 1
                    else et.play_of(game.arena, game.start, fixed, dev))
            if pref.less(eq.outcome, game.outcome_of_play(play)):
                return False
    return True


def test_c08_priority_games_positional_equilibria():
    rng = random.Random(108)
    for _ in range(50):
        game = random_priority_game(rng, max_vertices=6, max_outcomes=4)
        eq = et.multi_outcome_ne(game)
        assert one_state_per_vertex(eq.strategy_1.handle)
        assert one_state_per_vertex(eq.strategy_2.handle)
        assert _stable(game, eq, rng, sampled_machines=250)
    report("criterion 8 — 50/50 priority games: positional profile stable "
           "against all positional and 500 sampled memory-3 deviations")


def test_c09_muller_games_finite_memory_equilibria():
    rng = random.Random(109)
    for _ in range(25):
        game = random_muller_game(rng, max_vertices=4, max_color=3)
        eq = et.multi_outcome_ne(game)
        assert isinstance(eq.strategy_1.handle, et.FiniteMemoryStrategy)
        assert isinstance(eq.strategy_2.handle, et.FiniteMemoryStrategy)
        assert _stable(game, eq, rng, sampled_machines=250)
    report("criterion 9 — 25/25 Muller games: finite-memory equilibrium "
           "stable under the same deviation regime")


def test_c10_counterexample_corpus():
    reports = et.verify(et.build("remark_5_3"))
    assert all(r.passed and r.exhaustive for r in reports)
    assert "512/512" in reports[1].detail

    for n in (2, 3, 4):
        entry = et.build("prop_5_4", n=n)
        rs = {r.claim: r for r in et.verify(entry, samples=1000)}
        assert all(r.passed for r in rs.values())
        assert rs["no-ne"].exhaustive
        assert rs["short-chain-ne"].exhaustive == (n == 2)
    st4 = et.build("prop_5_4", 4).structure
    want = [
        [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1], [4, 1, 1, 1]],
        [[1, 2, 1, 1], [2, 2, 2, 2], [1, 2, 1, 1], [4, 2, 1, 1]],
        [[1, 1, 3, 1], [1, 1, 3, 1], [3, 3, 3, 3], [4, 1, 3, 1]],
        [[2, 4, 4, 4], [4, 3, 4, 4], [4, 4, 4, 4], [0, 0, 0, 0]],
    ]
    for c in range(4):
        assert st4.table[:, :, c].tolist() == want[c]

    assert all(r.passed and r.exhaustive
               for r in et.verify(et.build("prop_5_5")))
    st5 = et.build("prop_5_5").structure
    assert st5.table[:, :, 0].tolist() == letters(
        ["X Y Z X Y Z", "Y Z X X Y Z", "Z X Y X Y Z",
         "X Y Z X Y Z", "Y Z X X Y Z", "Z X Y X Y Z"])

    rs6 = {r.claim: r for r in et.verify(et.build("prop_5_6"))}
    assert all(r.passed for r in rs6.values())
    assert "6/6" in rs6["ne-table"].detail
    assert {tuple(p) for _, p in et.corpus.PROP_5_6_NE_TABLE} \
        >= {(1, 1, 1), (4, 7, 7)}
    st6 = et.build("prop_5_6").structure
    assert st6.table[:, :, 0].tolist() == letters(
        ["X Y X Z X Y Z", "Y X Z X X Y Z",
         "X Y X Z X Y Z", "Y X Z X X Y Z"])
    assert st6.table[:, :, 6].tolist() == letters(
        ["X Y X Z Y Y Y", "Y X Z X Z Z Z",
         "Y Y Y Y Y Y Y", "Z Z Z Z Z Z Z"])
    report("criterion 10 — corpus verified: rotating 512/512, ladder "
           "n=2,3,4, six-cube, cuboid; all displayed arrays bit-exact")


def test_c11_introduction_end_to_end():
    from eqtransfer import jsonio
    from conftest import fixture_path

    tree, prefs = jsonio.load(fixture_path("intro_payoff_tree.json"))
    profile, counter = et.kuhn_via_transfer(tree, prefs)
    game = et.NormalFormGame(et.to_normal_form(tree), prefs)
    assert et.is_nash_equilibrium(game, profile)

    wl_tree, wl_prefs = jsonio.load(fixture_path("intro_winlose_tree.json"))
    wl_game = et.NormalFormGame(et.to_normal_form(wl_tree), wl_prefs)
    assert (0, 3) in et.find_all_ne(wl_game)

    st = et.to_normal_form(jsonio.load(fixture_path("intro_structure.json")))
    assert et.is_determined(st)
    for label in range(1 << 3):
        assert winning_strategy(derive_win_lose(st, label)) is not None
    report("criterion 11 — introductory examples: transfer equilibrium "
           "verified, right-right equilibrium found, all 8 instantiations "
           "determined")
