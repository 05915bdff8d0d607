"""Game trees, backward induction, and transfer over tree oracles."""

import random
import sys

import pytest

import eqtransfer as et
from conftest import random_tree
from eqtransfer import jsonio
from eqtransfer.extensive import _backward_induction
from conftest import fixture_path
from reference_extensive import (caterpillar_pair, random_tree_pair,
                                 recursive_strategy, recursive_winners)
from reference_normal_form import (backward_induction_oracle, derive_win_lose,
                                   winning_strategy)


def intro_tree(leaves, n_outcomes, labels=None):
    """The four-leaf tree shape used by the introductory examples."""
    root = et.Node(2, (
        et.Node(1, (
            et.Node(2, (et.Leaf(leaves[0]), et.Leaf(leaves[1]))),
            et.Leaf(leaves[2]),
        )),
        et.Leaf(leaves[3]),
    ))
    return et.GameTree(root, et.OutcomeSet(n_outcomes, labels))


class TestTreeBasics:
    def test_preorder_indexing(self):
        t = intro_tree([0, 1, 2, 1], 3)
        assert t.owners == (2, 1, 2)
        assert t.root_code == 0
        # leaf codes ~o: the leaves read 0, 1, 2, 1 in preorder
        assert t.children == ((1, ~1), (2, ~2), (~0, ~1))
        assert t.owned_nodes(1) == [1]
        assert t.owned_nodes(2) == [0, 2]
        assert t.strategy_count(1) == 2
        assert t.strategy_count(2) == 4

    def test_leaf_outcome_range_checked(self):
        with pytest.raises(ValueError):
            et.GameTree(et.Leaf(5), et.OutcomeSet(2))

    def test_node_validation(self):
        with pytest.raises(ValueError):
            et.Node(3, (et.Leaf(0),))
        with pytest.raises(ValueError):
            et.Node(1, ())

    def test_strategy_index_roundtrip(self, rng):
        for _ in range(20):
            t = random_tree(rng, 3)
            for player in (1, 2):
                for i in range(t.strategy_count(player)):
                    s = et.strategy_from_index(t, player, i)
                    assert et.strategy_to_index(t, player, s) == i
                with pytest.raises(ValueError):
                    et.strategy_from_index(t, player, t.strategy_count(player))


class TestNormalFormConversion:
    def test_intro_tree_table(self):
        t = intro_tree([0, 1, 2, 1], 3)
        st = et.to_normal_form(t)
        assert st.strategy_counts == (2, 4)
        # player 2's strategy index: root choice (most significant digit),
        # then the inner b-node's choice; right-right is index 3.
        # With a left: root-left reaches the inner node (X or Y), root-right
        # gives Y.  With a right: root-left gives Z, root-right gives Y.
        assert st.table.tolist() == [[0, 1, 1, 1], [2, 2, 1, 1]]

    def test_play_tree_matches_table(self, rng):
        for _ in range(20):
            t = random_tree(rng, 4)
            st = et.to_normal_form(t)
            for i in range(st.strategy_counts[0]):
                for j in range(st.strategy_counts[1]):
                    s1 = et.strategy_from_index(t, 1, i)
                    s2 = et.strategy_from_index(t, 2, j)
                    assert et.play_tree(t, {**s1, **s2}) == st.outcome((i, j))

    def test_cap(self, rng):
        t = random_tree(rng, 3)
        with pytest.raises(et.TooLargeError):
            et.to_normal_form(t, cap=1)


class TestTreeOracle:
    def test_agrees_with_brute_force_on_all_labels(self, rng):
        for _ in range(30):
            t = random_tree(rng, rng.randint(1, 4))
            oracle = backward_induction_oracle(t)
            st = oracle.structure
            for label in range(1 << t.outcomes.size):
                winner = winning_strategy(derive_win_lose(st, label))
                assert winner is not None, "tree games are determined"
                assert oracle.winner(label) == winner[0]

    def test_strategy_handles_win_in_normal_form(self, rng):
        for _ in range(20):
            t = random_tree(rng, 3)
            oracle = backward_induction_oracle(t)
            st = oracle.structure
            for label in range(1 << 3):
                s = oracle.strategy(label)
                word = label if s.player == 1 else label ^ 0b111
                enforced = (st.table[s.handle, :] if s.player == 1
                            else st.table[:, s.handle])
                assert all(word >> int(o) & 1 for o in enforced)


class TestTreeBackend:
    def test_plays_and_deviations_match_normal_form(self, rng):
        for _ in range(200):
            t = random_tree(rng, rng.randint(1, 5))
            st = et.to_normal_form(t)
            oracle = et.TreeOracle(t)
            i = rng.randrange(st.strategy_counts[0])
            j = rng.randrange(st.strategy_counts[1])
            assert oracle.play_outcome(i, j) == st.outcome((i, j))
            column, row = set(st.table[:, j].tolist()), set(st.table[i].tolist())
            for o in range(st.outcomes.size):
                bit = 1 << o
                assert (oracle.better_deviation(j, 1, bit) == o) == (o in column)
                assert (oracle.better_deviation(i, 2, bit) == o) == (o in row)

    def test_non_winning_strategy_certificate(self):
        # player 2 moves at the root to player 1's node or to outcome 1;
        # player 1 moves there to outcome 0 or 2.  The oracle hands out the
        # move to 2 for player 1, which wins no label without 2: the play
        # still ends in 1, and player 2 deviates to reach 2.
        class NonWinning(et.TreeOracle):
            def strategy(self, label):
                s = super().strategy(label)
                return et.OracleStrategy(1, 1) if s.player == 1 else s

        t = et.GameTree(et.Node(2, (et.Node(1, (et.Leaf(0), et.Leaf(2))),
                                    et.Leaf(1))), et.OutcomeSet(3))
        prefs = et.PreferenceProfile((et.Preference.from_ranking([2, 1, 0]),
                                      et.Preference.from_ranking([0, 1, 2])))
        assert et.equilibrium(et.TreeOracle(t), prefs).outcome == 1
        with pytest.raises(et.NotDeterminedError, match="player 2") as info:
            et.equilibrium(NonWinning(t), prefs)
        assert (info.value.deviator, info.value.outcome) == (2, 2)

    def test_normal_form_built_only_when_read(self, rng):
        t = random_tree(rng, 3)
        prefs = et.PreferenceProfile((et.Preference.from_ranking([0, 1, 2]),
                                      et.Preference.from_ranking([2, 0, 1])))
        oracle = et.TreeOracle(t)
        et.equilibrium(oracle, prefs)
        assert "structure" not in vars(oracle)
        assert oracle.structure == et.to_normal_form(t)

    def test_deep_caterpillar_needs_no_recursion(self):
        # 10^4 internal nodes; nodes are compared by preorder index only,
        # since Node equality and hashing recurse
        prefs = et.PreferenceProfile((et.Preference.from_ranking([0, 1, 2, 3]),
                                      et.Preference.from_ranking([3, 1, 0, 2])))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            sub = et.Leaf(0)
            for d in range(10_000):
                sub = et.Node(1 + d % 2, (et.Leaf(1 + d % 3), sub))
            tree = et.GameTree(sub, et.OutcomeSet(4))
            oracle = et.TreeOracle(tree)
            result = et.equilibrium(oracle, prefs)
            played = oracle.play_outcome(*result.profile)
            copy, _ = jsonio.from_obj(jsonio.to_obj((tree, prefs)))
        finally:
            sys.setrecursionlimit(limit)
        assert played == result.outcome
        assert result.counter.winner_calls <= 4
        assert result.counter.strategy_calls == 2
        assert (copy.owners, copy.children) == (tree.owners, tree.children)


class TestBackwardInductionSweep:
    def test_matches_recursion_on_every_label(self):
        """300 seeded trees, a third of them beyond the normal-form profile
        cap, which a brute-force comparison cannot reach: the sweep's winner
        at every node, the oracle's winner and its strategy equal plain
        recursion's on every label."""
        rng = random.Random(21001)
        beyond_cap = 0
        for k in range(300):
            n = rng.randint(1, 5)
            if k % 10 == 0:
                root, _ = caterpillar_pair(rng, rng.randint(1, 120), n)
            else:
                root, _ = random_tree_pair(rng, rng.randint(0, 50), n)
            t = et.GameTree(root, et.OutcomeSet(n))
            counts = t.strategy_count(1) * t.strategy_count(2)
            beyond_cap += counts > et.DEFAULT_PROFILE_CAP
            oracle = et.TreeOracle(t)
            m = len(t.owners)
            for label in range(1 << n):
                won = recursive_winners(t, label)
                assert _backward_induction(t, label)[:m] == won
                champion = oracle.winner(label)
                assert champion == (won[t.root_code] if m else
                                    2 - (label >> ~t.root_code & 1))
                # bits beyond the outcomes are ignored
                assert oracle.winner(label | 1 << n + 2) == champion
                assert oracle.strategy(label) == recursive_strategy(t, label)
        assert beyond_cap >= 100


class TestKuhnViaTransfer:
    def test_random_trees_yield_ne(self, rng):
        for _ in range(40):
            n_out = rng.randint(1, 4)
            t = random_tree(rng, n_out)
            ranking = list(range(n_out))
            rng.shuffle(ranking)
            other = list(range(n_out))
            rng.shuffle(other)
            prefs = et.PreferenceProfile((
                et.Preference.from_ranking(ranking),
                et.Preference.from_ranking(other)))
            profile, counter = et.kuhn_via_transfer(t, prefs)
            game = et.NormalFormGame(et.to_normal_form(t), prefs)
            assert et.is_nash_equilibrium(game, profile)
            assert counter.winner_calls <= n_out
            assert counter.strategy_calls <= 2


class TestIntroductionEndToEnd:
    def test_payoff_tree_transfer(self):
        tree, prefs = jsonio.load(fixture_path("intro_payoff_tree.json"))
        profile, counter = et.kuhn_via_transfer(tree, prefs)
        game = et.NormalFormGame(et.to_normal_form(tree), prefs)
        assert et.is_nash_equilibrium(game, profile)
        assert counter.winner_calls <= 3
        assert counter.strategy_calls <= 2

    def test_right_right_equilibrium_found(self):
        # win-lose instantiation: b playing right at both owned nodes
        # (strategy index 3) against a playing left is an equilibrium
        tree, prefs = jsonio.load(fixture_path("intro_winlose_tree.json"))
        game = et.NormalFormGame(et.to_normal_form(tree), prefs)
        assert (0, 3) in et.find_all_ne(game)

    def test_all_eight_instantiations_determined(self):
        tree = jsonio.load(fixture_path("intro_structure.json"))
        st = et.to_normal_form(tree)
        assert et.is_determined(st)
        for label in range(1 << 3):
            assert winning_strategy(derive_win_lose(st, label)) \
                is not None
