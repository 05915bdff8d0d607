"""Normal-form games: equilibria, win-lose derivation, determinacy, slicing."""

import itertools
import random

import numpy as np
import pytest

import eqtransfer as et
from eqtransfer import jsonio, normal_form
from eqtransfer.normal_form import (_eliminate_dominated_outcomes,
                                   _enforceable_finite_cone,
                                   _finite_height_reduce)
from conftest import (fixture_path, random_acyclic_preference,
                      random_determined_structure, random_structure,
                      random_tree)
from reference_normal_form import (FullScanOracle, brute_enforcing_strategy,
                                   brute_find_all_ne,
                                   brute_is_determined,
                                   brute_is_nash_equilibrium, can_enforce,
                                   cellwise_eliminate_dominated_outcomes,
                                   cellwise_finite_height_reduce,
                                   derive_win_lose, deviations,
                                   is_determined_by_enforcement,
                                   rowset_enforceable_finite_cone,
                                   scan_is_determined, winning_strategy)

PAYOFF_LABELS = ("(1,0)", "(5,0)", "(2,4)", "(5,3)")


def payoff_game(rows, payoffs):
    """Two-player game from a payoff table: outcome index per cell, with
    preferences induced by coordinate-wise comparison of the payoff pairs."""
    n = len(payoffs)
    outs = et.OutcomeSet(n, tuple(str(p) for p in payoffs))
    prefs = []
    for player in range(2):
        pairs = {(o, q) for o in range(n) for q in range(n)
                 if payoffs[o][player] < payoffs[q][player]}
        prefs.append(et.Preference(outs, frozenset(pairs)))
    st = et.GameStructure((len(rows), len(rows[0])), outs, rows)
    return et.NormalFormGame(st, et.PreferenceProfile(tuple(prefs)))


class TestStructure:
    def test_tensor_shape_checks(self):
        with pytest.raises(ValueError):
            et.GameStructure((2, 2), et.OutcomeSet(2), [0, 1, 0])
        with pytest.raises(ValueError):
            et.GameStructure((2,), et.OutcomeSet(2), [0, 5])

    def test_flat_and_nested_agree(self):
        outs = et.OutcomeSet(3)
        a = et.GameStructure((2, 2), outs, [0, 1, 2, 0])
        b = et.GameStructure((2, 2), outs, [[0, 1], [2, 0]])
        assert a == b
        assert a.outcome((1, 0)) == 2
        assert a.profile_count == 4

    def test_table_is_read_only(self):
        st = et.GameStructure((2,), et.OutcomeSet(2), [0, 1])
        with pytest.raises(ValueError):
            st.table[0] = 1

    @pytest.mark.parametrize("counts, table, field", [
        ((2,), [0.5, 1.9], "table"),
        ((2,), ["1", "0"], "table"),
        ((2,), [True, False], "table"),
        ((1, 2), [True, 0], "table"),
        ((1, 2), ([0, False],), "table"),
        ((2,), [0, None], "table"),
        ((2.9,), [0, 1], "strategy counts"),
        ((True, 2), [0, 1], "strategy counts"),
    ])
    def test_non_integers_refused(self, counts, table, field):
        with pytest.raises(ValueError, match=field):
            et.GameStructure(counts, et.OutcomeSet(2), table)

    def test_numpy_integers_pass(self):
        st = et.GameStructure(np.array([2, 2], dtype=np.int32),
                              et.OutcomeSet(np.int64(3)),
                              np.array([[0, 1], [2, 0]], dtype=np.uint8))
        assert st == et.GameStructure((2, 2), et.OutcomeSet(3),
                                      [[0, 1], [2, 0]])
        assert type(st.strategy_counts[0]) is int
        assert st.table.dtype == np.int64


class TestNashEquilibrium:
    def test_first_payoff_game(self):
        # rows (1,0) (5,0) / (2,4) (5,3): the off-diagonal profiles are stable
        g = payoff_game([[0, 1], [2, 3]],
                        [(1, 0), (5, 0), (2, 4), (5, 3)])
        assert et.find_all_ne(g) == [(0, 1), (1, 0)]

    def test_matching_pennies_has_no_ne(self):
        g = payoff_game([[0, 1], [1, 0]], [(0, 1), (1, 0)])
        assert et.find_all_ne(g) == []

    def test_coordination_game(self):
        g = payoff_game([[0, 1], [1, 2]], [(2, 1), (0, 0), (1, 2)])
        assert et.find_all_ne(g) == [(0, 0), (1, 1)]

    def test_deviations_vary_one_component(self):
        st = random_structure(__import__("random").Random(1), (3, 4), 2)
        devs = list(deviations(st, (1, 2), 0))
        assert devs == [(0, 2), (2, 2)]
        devs = list(deviations(st, (1, 2), 1))
        assert devs == [(1, 0), (1, 1), (1, 3)]

    def test_cap_enforced(self, rng):
        g = payoff_game([[0, 1], [1, 0]], [(0, 1), (1, 0)])
        with pytest.raises(et.TooLargeError):
            et.find_all_ne(g, cap=2)

    def test_self_pair_never_blocks(self):
        # a deviation must leave the profile's own cell: with player 1
        # holding only (0, 0), every profile is stable, although player 1's
        # line through (0, 1) meets outcome 0 in the other row
        st = et.GameStructure((2, 2), et.OutcomeSet(2), [[0, 1], [1, 1]])
        g = et.NormalFormGame(st, et.PreferenceProfile((
            et.Preference.from_pairs(2, [(0, 0)]),
            et.Preference.from_pairs(2, []))))
        everything = [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert brute_find_all_ne(g) == everything
        assert et.find_all_ne(g) == everything
        assert all(et.is_nash_equilibrium(g, s) for s in everything)

    @pytest.mark.parametrize("profile", [(-1, 0), (0, 99), (0, 4), (2, 0),
                                         (0,), (0, 0, 0), (True, 0),
                                         (1.0, 0)])
    def test_profile_must_fit_the_game(self, profile):
        """Once (-1, 0) silently checked the last row, and (0,), (True, 0)
        and (1.0, 0) raised a bare TypeError or IndexError."""
        tree, prefs = jsonio.load(fixture_path("intro_payoff_tree.json"))
        g = et.NormalFormGame(et.to_normal_form(tree), prefs)
        assert g.structure.strategy_counts == (2, 4)
        with pytest.raises(et.BadIndexError, match="does not fit"):
            et.is_nash_equilibrium(g, profile)
        with pytest.raises(et.BadIndexError, match="does not fit"):
            g.structure.outcome(profile)

    def test_numpy_profile_fits(self):
        tree, prefs = jsonio.load(fixture_path("intro_payoff_tree.json"))
        g = et.NormalFormGame(et.to_normal_form(tree), prefs)
        for profile in g.structure.profiles():
            typed = [np.int64(profile[0]), np.int32(profile[1])]
            assert g.structure.outcome(typed) == g.structure.outcome(profile)
            assert (et.is_nash_equilibrium(g, typed)
                    == et.is_nash_equilibrium(g, profile))


def random_relation_game(rng, players: int) -> et.NormalFormGame:
    """Arbitrary relations (cycles and self-pairs included) over 1..70
    outcomes, so that outcomes and pairs fall on both sides of bit 64."""
    n = rng.randint(1, 70) if rng.random() < 0.5 else rng.randint(60, 70)
    counts = [rng.randint(1, 6 if players == 2 else 4) for _ in range(players)]
    used = rng.sample(range(n), min(n, rng.randint(1, 6))) + [n - 1]
    total = int(np.prod(counts))
    table = [rng.choice(used) for _ in range(total)]
    st = et.GameStructure(tuple(counts), et.OutcomeSet(n), table)
    density = rng.random()
    prefs = []
    for _ in range(players):
        pairs = [(x, y) for x in used for y in used if rng.random() < density]
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
        prefs.append(et.Preference.from_pairs(n, pairs))
    return et.NormalFormGame(st, et.PreferenceProfile(tuple(prefs)))


class TestNashKernel:
    """The mask kernel against the deviation-by-deviation reference."""

    @pytest.mark.parametrize("players", [2, 3])
    def test_matches_reference_on_arbitrary_relations(self, rng, players):
        with_ne = high_outcomes = 0
        for _ in range(600):
            g = random_relation_game(rng, players)
            nes = et.find_all_ne(g)
            assert nes == brute_find_all_ne(g)
            for s in g.structure.profiles():
                assert et.is_nash_equilibrium(g, s) \
                    == brute_is_nash_equilibrium(g, s)
            with_ne += bool(nes)
            high_outcomes += int(g.structure.table.max()) >= 64
        # both verdicts and the upper word occur often
        assert 100 < with_ne < 500
        assert high_outcomes > 30


class TestWinLose:
    def wl(self, rows):
        # outcome 0 is the player-1 win
        outs = et.OutcomeSet(2, ("(1,0)", "(0,1)"))
        st = et.GameStructure((2, 2), outs, rows)
        return derive_win_lose(st, 0b01)

    def test_player_1_wins_with_second_row(self):
        assert winning_strategy(self.wl([[1, 1], [0, 0]])) == (1, 1)

    def test_player_2_wins_with_second_column(self):
        assert winning_strategy(self.wl([[0, 1], [0, 1]])) == (2, 1)

    def test_undetermined_square(self):
        assert winning_strategy(self.wl([[1, 0], [0, 1]])) is None

    def test_winning_strategy_iff_ne(self, rng):
        # the win-lose preferences: player 1 wants outcome 0, player 2 wants 1
        outs = et.OutcomeSet(2)
        prefs = et.PreferenceProfile((
            et.Preference.from_pairs(2, [(1, 0)]),
            et.Preference.from_pairs(2, [(0, 1)]),
        ))
        for _ in range(200):
            st = random_structure(rng, (rng.randint(1, 4), rng.randint(1, 4)), 2)
            w = derive_win_lose(st, 0b01)
            game = et.NormalFormGame(st, prefs)
            assert (winning_strategy(w) is not None) \
                == bool(et.find_all_ne(game))

    def test_label_length_checked(self):
        st = et.GameStructure((2, 2), et.OutcomeSet(3), [[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            derive_win_lose(st, 0b1001)


class TestEnforcement:
    def test_lowest_index_strategy(self):
        outs = et.OutcomeSet(2)
        st = et.GameStructure((3, 2), outs, [[1, 1], [0, 0], [0, 0]])
        target = 0b01
        assert et.enforcing_strategy(st, 1, target) == 1
        assert can_enforce(st, 1, target)
        assert et.enforcing_strategy(st, 2, target) is None

    def test_bad_player_raises(self):
        st = et.GameStructure((2, 2), et.OutcomeSet(2), [[0, 1], [1, 0]])
        with pytest.raises(et.BadIndexError):
            et.enforcing_strategy(st, 3, 0b01)

    def test_matches_reference_up_to_70_outcomes(self, rng):
        """The row and column masks, wider than 64 bits from 65 outcomes
        on, pick the strategy a boolean table of the subset picks."""
        for _ in range(300):
            n = rng.choice((1, 2, 5, 12, 63, 64, 65, 70))
            st = random_structure(rng, (rng.randint(1, 7), rng.randint(1, 7)),
                                  n)
            reached = [sorted(set(row)) for row in st.table.tolist()]
            for _ in range(6):
                if rng.random() < 0.5:  # a label some row may fit
                    subset = sum(1 << o for o in rng.choice(reached))
                    subset |= rng.getrandbits(n)
                else:
                    subset = rng.getrandbits(n)
                for player in (1, 2):
                    assert et.enforcing_strategy(st, player, subset) == \
                        brute_enforcing_strategy(st, player, subset)

    @pytest.mark.parametrize("n", [63, 64, 70])
    def test_masks_are_kept(self, n):
        """On both sides of 63 outcomes, the most that int64 bits hold."""
        top = n - 1
        st = et.GameStructure((2, 2), et.OutcomeSet(n), [[0, top], [3, 3]])
        assert st.row_masks == (1 | 1 << top, 1 << 3)
        assert st.column_masks == (1 | 1 << 3, 1 << top | 1 << 3)
        assert st.row_masks is st.row_masks

    def test_masks_need_two_players(self):
        st = et.GameStructure((2,), et.OutcomeSet(2), [0, 1])
        with pytest.raises(ValueError, match="two-player"):
            st.row_masks


class CountingMasks(tuple):
    """Outcome masks that count how many of them are read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        for m in super().__iter__():
            self.reads += 1
            yield m


def transfer_result(oracle: et.StructureOracle, prefs) -> tuple:
    """The verified transfer's result, or its error's type, message and
    certificate."""
    try:
        r = et.equilibrium(oracle, prefs)
    except et.EqTransferError as exc:
        return (type(exc), str(exc), getattr(exc, "deviator", None),
                getattr(exc, "outcome", None))
    return r.profile, r.outcome, r.enforced, r.counter


class TestStructureOracle:
    """The oracle unlinks rows that leave the last label answered 1; a
    full scan of every row on every query is the reference."""

    def test_any_query_order_matches_full_scan(self):
        rng = random.Random(21004)
        for _ in range(300):
            n = rng.randint(1, 8)
            st = (random_determined_structure(rng, max_outcomes=n)
                  if rng.random() < 0.5 else random_structure(
                      rng, (rng.randint(1, 9), rng.randint(1, 4)), n))
            n = st.outcomes.size
            oracle, reference = et.StructureOracle(st), FullScanOracle(st)
            won = (1 << n) - 1
            for _ in range(30):
                pick = rng.random()
                if pick < 0.4:  # a subset of the last label answered 1
                    label = won & rng.getrandbits(n)
                elif pick < 0.6:  # a probe: that label less one outcome
                    label = won & ~(1 << rng.randrange(n))
                else:  # any label, a subset or not
                    label = rng.getrandbits(n)
                if rng.random() < 0.5:
                    answer = oracle.winner(label)
                    assert answer == reference.winner(label)
                else:
                    s = oracle.strategy(label)
                    assert s == reference.strategy(label)
                    answer = s.player
                if answer == 1:
                    won = label

    def test_transfers_match_full_scan(self):
        """Profile, enforced set, call counts and NotDeterminedError
        messages, on determined and arbitrary games alike."""
        rng = random.Random(21005)
        for _ in range(1000):
            if rng.random() < 0.5:
                st = random_determined_structure(rng, max_outcomes=7)
            else:
                st = random_structure(rng, (rng.randint(1, 8),
                                            rng.randint(1, 8)),
                                      rng.randint(1, 7))
            n = st.outcomes.size
            prefs = et.PreferenceProfile(
                (random_acyclic_preference(rng, n),
                 random_acyclic_preference(rng, n)))
            assert transfer_result(et.StructureOracle(st), prefs) == \
                transfer_result(FullScanOracle(st), prefs)

    def test_wide_game_reads_linearly_many_masks(self):
        """Row o reaches only outcome o, and player 1 prefers higher
        outcomes: each of the 4,096 probes drops one more row, which the
        next scan unlinks instead of rereading every row before it."""
        n = 4096
        st = et.GameStructure((n, 2), et.OutcomeSet(n),
                              [o for o in range(n) for _ in range(2)])
        chain = [(o, o + 1) for o in range(n - 1)]
        prefs = et.PreferenceProfile((
            et.Preference.from_pairs(n, chain),
            et.Preference.from_pairs(n, [p[::-1] for p in chain])))
        masks = CountingMasks(st.row_masks)
        st.__dict__["row_masks"] = masks
        result = et.equilibrium(et.StructureOracle(st), prefs)
        assert result.counter.winner_calls == n
        assert result.counter.strategy_calls == 2
        assert result.profile == (n - 1, 0)
        assert masks.reads <= 4 * n


class TestDeterminacy:
    def xyz(self, rows, n=3):
        return et.GameStructure(
            (len(rows), len(rows[0])), et.OutcomeSet(n), rows)

    def test_xy_yx_not_determined(self):
        assert not et.is_determined(self.xyz([[0, 1], [1, 0]], n=2))

    def test_xz_yy_determined(self):
        assert et.is_determined(self.xyz([[0, 2], [1, 1]]))

    def test_wider_y_structure_determined(self):
        assert et.is_determined(self.xyz([[0, 2, 1], [1, 1, 1]]))

    def test_equivalence_with_enforcement(self, rng):
        for _ in range(100):
            st = random_structure(rng, (rng.randint(1, 4), rng.randint(1, 4)),
                                  rng.randint(1, 4))
            assert et.is_determined(st) == is_determined_by_enforcement(st)

    def test_matches_reference_on_random_structures(self, rng):
        verdicts = []
        for _ in range(3000):
            st = random_structure(rng, (rng.randint(1, 5), rng.randint(1, 5)),
                                  rng.randint(1, 6))
            verdicts.append(brute_is_determined(st))
            assert et.is_determined(st) == verdicts[-1]
        assert 0 < sum(verdicts) < len(verdicts)

    def test_matches_reference_on_tree_normal_forms(self, rng):
        # tree normal forms as the tests build them, and as large as the
        # benchmark's: 8-12 outcomes, at most 10 strategies a player
        structures = [random_determined_structure(rng) for _ in range(300)]
        while len(structures) < 330:
            t = random_tree(rng, rng.randint(8, 12), max_depth=4)
            if max(t.strategy_count(1), t.strategy_count(2)) <= 10:
                structures.append(et.to_normal_form(t))
        for st in structures:
            assert et.is_determined(st) and brute_is_determined(st)

    def test_matches_reference_on_planted_non_determined(self, rng):
        # every row and column meets both the last outcome and the others
        for n in (8, 10, 12):
            rows, cols = rng.randint(4, 8), rng.randint(4, 8)
            table = [[n - 1 if (i + j) % 2 == 0 else rng.randrange(n - 1)
                      for j in range(cols)] for i in range(rows)]
            st = et.GameStructure((rows, cols), et.OutcomeSet(n), table)
            assert not et.is_determined(st)
            assert not brute_is_determined(st)

    def test_search_matches_label_scan(self, rng):
        """The search's verdict is the 2^n label scan's on 3,000 seeded
        structures: random tables from 1x1 to 7x7 over 1-12 outcomes,
        determined tree normal forms, and 1xk and kx1 tables.  With 21
        outcomes, the planted structure's only unwon labels hold outcome
        20.  Each label it finds on a structure that is not determined is
        one that neither player wins."""
        structures = [random_structure(rng, (rng.randint(1, 7),
                                             rng.randint(1, 7)),
                                       rng.randint(1, 12))
                      for _ in range(2400)]
        structures += [random_determined_structure(rng, max_outcomes=12)
                       for _ in range(400)]
        for _ in range(200):
            k = rng.randint(1, 12)
            structures.append(random_structure(
                rng, rng.choice([(1, k), (k, 1)]), rng.randint(1, 12)))
        wide = et.OutcomeSet(21)
        late = et.GameStructure((2, 3), wide, [[0, 1, 20], [1, 0, 20]])
        diagonal = et.GameStructure((21, 1), wide, list(range(21)))
        verdicts = []
        for st in structures + [late, diagonal]:
            verdicts.append(et.is_determined(st, cap=21))
            assert verdicts[-1] == scan_is_determined(st, cap=21)
            if not verdicts[-1]:
                label = normal_form._undetermined_label(st.row_masks,
                                                        st.column_masks)
                full = (1 << st.outcomes.size) - 1
                assert brute_enforcing_strategy(st, 1, label) is None
                assert brute_enforcing_strategy(st, 2, label ^ full) is None
        assert verdicts[-2:] == [False, True]
        assert 0.1 < sum(verdicts) / len(verdicts) < 0.9

    def test_outcome_cap(self):
        st = random_structure(__import__("random").Random(0), (2, 2), 4)
        with pytest.raises(et.TooLargeError):
            et.is_determined(st, cap=3)
        # a raised cap decides more outcomes than a uint32 label holds
        wide = et.GameStructure((1, 1), et.OutcomeSet(32), [[0]])
        assert et.is_determined(wide, cap=40)


class TestSliceMerge:
    def test_slice_preserves_outcomes_pointwise(self):
        st = et.build("remark_5_3").structure
        for player in range(3):
            for strat in range(st.strategy_counts[player]):
                sliced = et.slice_structure(st, player, strat)
                for profile in sliced.profiles():
                    full = list(profile)
                    full.insert(player, strat)
                    assert sliced.outcome(profile) == st.outcome(tuple(full))

    def test_merge_preserves_outcomes_pointwise(self):
        st = et.build("prop_5_6").structure
        for pair in ((0, 1), (0, 2), (1, 2)):
            merged = et.merge_players(st, pair)
            other = ({0, 1, 2} - set(pair)).pop()
            na, nb = st.strategy_counts[pair[0]], st.strategy_counts[pair[1]]
            assert merged.strategy_counts == (na * nb, st.strategy_counts[other])
            for i, j in itertools.product(range(na), range(nb)):
                for k in range(st.strategy_counts[other]):
                    full = [0, 0, 0]
                    full[pair[0]], full[pair[1]], full[other] = i, j, k
                    assert merged.outcome((i * nb + j, k)) \
                        == st.outcome(tuple(full))

    def test_slice_merge_require_three_players(self):
        st = et.GameStructure((2, 2), et.OutcomeSet(2), [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            et.slice_structure(st, 0, 0)
        with pytest.raises(ValueError):
            et.merge_players(st, (0, 1))

    def test_bad_indices(self):
        st = et.build("remark_5_3").structure
        with pytest.raises(et.BadIndexError):
            et.slice_structure(st, 0, 9)
        with pytest.raises(et.BadIndexError):
            et.merge_players(st, (1, 1))


class TestCompanionsMatchReference:
    """The companion reductions relabel the table through one lookup array
    and read the kept outcome masks; the references look each cell up on
    its own.  Both must build the same games and cones."""

    GAMES = 300

    @staticmethod
    def game(rng, linear: bool = True) -> et.NormalFormGame:
        """A two-player game with 1 to 12 outcomes, labelled or not, and
        strict linear preferences, or acyclic ones, whose cones and rank
        pairs can tie."""
        n = rng.randint(1, 12)
        labels = (tuple(f"o{x}" for x in range(n)) if rng.random() < 0.5
                  else None)
        counts = (rng.randint(1, 5), rng.randint(1, 5))
        table = [rng.randrange(n) for _ in range(counts[0] * counts[1])]
        st = et.GameStructure(counts, et.OutcomeSet(n, labels), table)
        prefs = []
        for _ in range(2):
            ranking = list(range(n))
            rng.shuffle(ranking)
            pref = (et.Preference.from_ranking(ranking) if linear
                    else random_acyclic_preference(rng, n))
            prefs.append(et.Preference(st.outcomes, pref.pairs))
        return et.NormalFormGame(st, et.PreferenceProfile(tuple(prefs)))

    @staticmethod
    def result_or_error(call):
        try:
            return call()
        except et.EqTransferError as exc:
            return type(exc), str(exc)

    def test_elimination(self, rng):
        eligible = 0
        for _ in range(self.GAMES):
            game = self.game(rng)
            st, p1 = game.structure, game.preferences[0]
            n, cols = st.outcomes.size, st.strategy_counts[1]
            # a row of outcomes above o makes (e, o) eligible when o has
            # anything above it
            o, e = rng.randrange(n), rng.randrange(st.strategy_counts[0])
            above = [x for x in range(n) if p1.less(o, x)]
            if above:
                table = st.table.copy()
                table[e] = [rng.choice(above) for _ in range(cols)]
                game = et.NormalFormGame(
                    et.GameStructure(st.strategy_counts, st.outcomes, table),
                    game.preferences)
                eligible += 1
            for args in ((e, o), (rng.randrange(-1, 6), rng.randrange(-1, 13))):
                got = self.result_or_error(
                    lambda: _eliminate_dominated_outcomes(game, *args))
                want = self.result_or_error(
                    lambda: cellwise_eliminate_dominated_outcomes(game, *args))
                assert got == want, args
        assert eligible >= self.GAMES // 2

    def test_finite_height_reduction(self, rng):
        for i in range(2 * self.GAMES):
            game = self.game(rng, linear=i % 2 == 0)
            assert (_finite_height_reduce(game)
                    == cellwise_finite_height_reduce(game))

    def test_enforceable_cone(self, rng):
        for i in range(2 * self.GAMES):
            game = self.game(rng, linear=i % 2 == 0)
            for player in (1, 2):
                assert (_enforceable_finite_cone(game, player)
                        == rowset_enforceable_finite_cone(game, player))


def two_by_two(*prefs):
    return et.NormalFormGame(
        et.GameStructure((2, 2), et.OutcomeSet(2), [[0, 1], [1, 0]]),
        et.PreferenceProfile(prefs))


@pytest.mark.parametrize("call, error, message", [
    (lambda: et.GameStructure((2, 0), et.OutcomeSet(2), []), ValueError,
     "every player needs at least one strategy"),
    (lambda: et.GameStructure((3, 2), et.OutcomeSet(2),
                              np.zeros((2, 3), dtype=np.int64)), ValueError,
     "tensor shape (2, 3) != strategy counts (3, 2)"),
    (lambda: two_by_two(*[et.Preference.from_pairs(2, [])] * 3), ValueError,
     "one preference per player required"),
    (lambda: two_by_two(*[et.Preference.from_pairs(3, [])] * 2), ValueError,
     "preferences must range over the structure's outcomes"),
    (lambda: et.slice_structure(et.build("remark_5_3").structure, 3, 0),
     et.BadIndexError, "player index 3 out of range"),
    (lambda: _eliminate_dominated_outcomes(
        two_by_two(*[et.Preference.from_pairs(2, [])] * 2), 0, 0),
     et.HypothesisViolatedError, "preferences must be strict linear orders")],
    ids=["no strategy", "tensor shape", "preference count",
         "preference outcomes", "slice player", "elimination non-linear"])
def test_refused_inputs(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


PROP_5_5 = et.build("prop_5_5").structure
TREE = jsonio.load(fixture_path("intro_winlose_tree.json"))[0]


@pytest.mark.parametrize("call, error, message", [
    (lambda: et.slice_structure(PROP_5_5, 1.5, 0), et.BadIndexError,
     "player index 1.5 out of range"),
    (lambda: et.slice_structure(PROP_5_5, 0, True), et.BadIndexError,
     "strategy index True out of range"),
    (lambda: et.merge_players(PROP_5_5, (0.5, 1)), et.BadIndexError,
     "bad player pair (0.5, 1)"),
    (lambda: et.merge_players(PROP_5_5, (True, 2)), et.BadIndexError,
     "bad player pair (True, 2)"),
    (lambda: et.enforcing_strategy(et.to_normal_form(TREE), True, 1),
     et.BadIndexError, "player must be 1 or 2, got True"),
    (lambda: TREE.owned_nodes(0), et.BadIndexError,
     "player must be 1 or 2, got 0"),
    (lambda: TREE.strategy_count(0), et.BadIndexError,
     "player must be 1 or 2, got 0"),
    (lambda: TREE.strategy_count(3), et.BadIndexError,
     "player must be 1 or 2, got 3"),
    (lambda: et.strategy_from_index(TREE, 0, 0), et.BadIndexError,
     "player must be 1 or 2, got 0"),
    (lambda: et.strategy_to_index(TREE, 2.0, {}), et.BadIndexError,
     "player must be 1 or 2, got 2.0"),
    (lambda: et.strategy_from_index(TREE, 1, 1.5), ValueError,
     "strategy index 1.5 out of range"),
    (lambda: et.strategy_from_index(TREE, 2, True), ValueError,
     "strategy index True out of range")],
    ids=["slice player", "slice strategy", "merge float", "merge bool",
         "enforce bool", "owned nodes", "count 0", "count 3", "decode player",
         "encode player", "decode float", "decode bool"])
def test_players_and_indices_are_integers(call, error, message):
    """Once bare TypeErrors and IndexErrors, or a bool read as 1 and
    player 0 as player 2; numpy integers still pass."""
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
    one = np.int64(1)
    assert et.slice_structure(PROP_5_5, one, one) == et.slice_structure(
        PROP_5_5, 1, 1)
    assert TREE.strategy_count(one + 1) == 4
    assert et.strategy_from_index(TREE, one, one) == et.strategy_from_index(
        TREE, 1, 1)

