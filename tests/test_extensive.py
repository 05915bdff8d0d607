"""Game trees, backward induction, and transfer over tree oracles."""

import math
import random
import signal
import sys

import numpy as np
import pytest

import eqtransfer as et
from conftest import random_tree
from eqtransfer import jsonio
from eqtransfer.extensive import _backward_induction
from conftest import fixture_path
from reference_extensive import (Leaf, Node, caterpillar_pair, index_tree,
                                 random_tree_pair, recursive_strategy,
                                 recursive_winners)
from test_fuzz import Hang
from reference_normal_form import (backward_induction_oracle, derive_win_lose,
                                   winning_strategy)


def intro_tree(leaves, n_outcomes, labels=None):
    """The four-leaf tree shape used by the introductory examples."""
    root = Node(2, (
        Node(1, (
            Node(2, (Leaf(leaves[0]), Leaf(leaves[1]))),
            Leaf(leaves[2]),
        )),
        Leaf(leaves[3]),
    ))
    return index_tree(root, et.OutcomeSet(n_outcomes, labels))


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
            et.GameTree([], [], ~5, et.OutcomeSet(2))

    def test_node_validation(self):
        outs = et.OutcomeSet(2)
        with pytest.raises(ValueError, match="player 1 or 2"):
            et.GameTree([3], [[~0]], 0, outs)
        with pytest.raises(ValueError, match="at least one child"):
            et.GameTree([1], [[]], 0, outs)
        with pytest.raises(ValueError, match="leaf outcome 5 out of range"):
            et.GameTree([1], [[~0, ~5]], 0, outs)

    def test_strategy_index_roundtrip(self, rng):
        for _ in range(20):
            t = random_tree(rng, 3)
            for player in (1, 2):
                for i in range(t.strategy_count(player)):
                    s = et.strategy_from_index(t, player, i)
                    assert et.strategy_to_index(t, player, s) == i
                with pytest.raises(ValueError):
                    et.strategy_from_index(t, player, t.strategy_count(player))


class TestTreeArrays:
    """``GameTree`` checks its arrays: every bad shape is a ValueError, and
    every tree it takes is one that each traversal finishes on."""

    @pytest.mark.parametrize("owners, children, root, message", [
        ([1], [[0, ~1]], 0, "child code 0 of node 0 is not a node after it"),
        ([1, 2], [[1], [0]], 0, "child code 0 of node 1"),
        ([1, 1, 1], [[1, 2], [2, ~0], [~1]], 0, "node 2 has two parents"),
        ([1, 1], [[~0], [~1]], 0, "node 1 has no parent"),
        ([1], [[1, ~0]], 0, "child code 1 of node 0"),
        ([1, 1], [[~0], [0]], 1, "root code 1 is neither node 0"),
        ([], [], 0, "root code 0 is neither node 0"),
        ([1], [[~0]], ~0, "root code -1 is neither node 0"),
        ([1, 2], [[1]], 0, "one children list per owner"),
        ([True], [[~0]], 0, "node owners: True is not an integer"),
        ([1], [[~0, False]], 0, "child codes: False is not an integer"),
        ([1], [[~0]], 0.0, "root code: 0.0 is not an integer"),
    ])
    def test_bad_arrays_refused(self, owners, children, root, message):
        with pytest.raises(ValueError, match=message):
            et.GameTree(owners, children, root, et.OutcomeSet(2))

    def test_out_of_range_leaf_is_a_schema_error(self):
        doc = {"format": 1, "outcomes": 2,
               "tree": {"owner": "a", "children": [{"leaf": 0}, {"leaf": 5}]}}
        with pytest.raises(et.SchemaError, match="leaf outcome 5 out of range"):
            jsonio.from_obj(doc)

    def test_numpy_arrays_pass(self):
        t = et.GameTree(np.array([2, 1]), np.array([[1, ~1], [~0, ~2]]),
                        np.int64(0), et.OutcomeSet(3))
        assert t.owners == (2, 1)
        assert t.children == ((1, ~1), (~0, ~2))
        assert {type(k) for row in t.children for k in row} == {int}

    def test_random_arrays(self):
        """2,000 seeded (owners, children, root) arrays, half of them from
        a tree with one value then changed.  Each either raises ValueError
        or gives a tree on which backward induction, play and deviation
        search finish and agree with brute force, and whose JSON round
        trip plays every strategy pair to the same outcome."""
        rng = random.Random(23001)

        def on_alarm(signum, frame):
            raise Hang("no answer within 2 s")

        previous = signal.signal(signal.SIGALRM, on_alarm)
        built = 0
        try:
            for _ in range(2000):
                n = rng.randint(1, 3)
                owners, children, root = random_arrays(rng, n)
                signal.setitimer(signal.ITIMER_REAL, 2)
                try:
                    t = et.GameTree(owners, children, root, et.OutcomeSet(n))
                except ValueError:
                    continue
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                signal.setitimer(signal.ITIMER_REAL, 2)
                try:
                    check_tree(t)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                built += 1
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert 500 <= built <= 1500


def random_arrays(rng: random.Random, n: int) -> tuple[list, list, int]:
    """A tree's arrays with at most 5 internal nodes, each child numbered
    after a random earlier parent, not in preorder; half the time one
    owner, child code or the root is then changed to a value near the
    valid range, or one child code is dropped."""
    size = rng.randint(0, 5)
    children = [[] for _ in range(size)]
    for k in range(1, size):
        children[rng.randrange(k)].append(k)
    for row in children:
        row += [~rng.randrange(n) for _ in range(rng.randint(not row, 2))]
        rng.shuffle(row)
    owners = [rng.choice((1, 2)) for _ in range(size)]
    root = 0 if size else ~rng.randrange(n)
    if rng.random() < 0.5:
        spot = rng.randrange(3)
        if spot == 0 and size:
            owners[rng.randrange(size)] = rng.randint(0, 3)
        elif spot == 1 and size:
            row = children[rng.randrange(size)]
            if rng.random() < 0.2:
                row.pop()
            else:
                row[rng.randrange(len(row))] = rng.randint(-n - 1, size)
        else:
            root = rng.randint(-n - 1, 1)
    return owners, children, root


def check_tree(t: et.GameTree) -> None:
    """Winners and strategies against plain recursion, the JSON round
    trip's arrays against the tree's, node for node, every strategy pair's
    play on both, and ``better_deviation`` against what each deviation
    reaches."""
    n = t.outcomes.size
    oracle = et.TreeOracle(t)
    for label in range(1 << n):
        expected = recursive_strategy(t, label)
        assert oracle.winner(label) == expected.player
        assert oracle.strategy(label) == expected
    copy = jsonio.loads(jsonio.dumps(t))
    assert ((copy.owners, copy.children, copy.root_code, copy.outcomes)
            == (t.owners, t.children, t.root_code, t.outcomes))
    plays = {}
    for h1 in range(t.strategy_count(1)):
        for h2 in range(t.strategy_count(2)):
            choice = {**et.strategy_from_index(t, 1, h1),
                      **et.strategy_from_index(t, 2, h2)}
            plays[h1, h2] = et.play_tree(t, choice)
            assert et.play_tree(copy, {
                **et.strategy_from_index(copy, 1, h1),
                **et.strategy_from_index(copy, 2, h2)}) == plays[h1, h2]
    for deviator in (1, 2):
        for fixed in range(t.strategy_count(3 - deviator)):
            reached = {plays[(h, fixed) if deviator == 1 else (fixed, h)]
                       for h in range(t.strategy_count(deviator))}
            for better in range(1 << n):
                found = oracle.better_deviation(fixed, deviator, better)
                assert (found is None) == (not any(better >> o & 1
                                                   for o in reached))
                assert found is None or found in reached and better >> found & 1


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

        t = et.GameTree([2, 1], [[1, ~1], [~0, ~2]], 0, et.OutcomeSet(3))
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

    def test_transfer_multiplies_out_no_strategy_count(self, rng,
                                                      monkeypatch):
        """Only ``strategy_count`` multiplies the radices, when it is
        asked: a transfer and its verification call no ``math.prod``."""
        prod, calls = math.prod, []
        monkeypatch.setattr(math, "prod",
                            lambda *a, **k: calls.append(a) or prod(*a, **k))
        prefs = et.PreferenceProfile((et.Preference.from_ranking([0, 1, 2]),
                                      et.Preference.from_ranking([2, 0, 1])))
        trees = [random_tree(rng, 3) for _ in range(20)]
        for t in trees:
            et.equilibrium(t.backend(), prefs)
        assert calls == []
        for t in trees:
            for player in (1, 2):
                count = 1
                for owner, children in zip(t.owners, t.children):
                    count *= len(children) if owner == player else 1
                assert t.strategy_count(player) == count

    def test_deep_caterpillar_needs_no_recursion(self):
        # 10^4 internal nodes; nodes are compared by preorder index only,
        # since Node equality and hashing recurse
        prefs = et.PreferenceProfile((et.Preference.from_ranking([0, 1, 2, 3]),
                                      et.Preference.from_ranking([3, 1, 0, 2])))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            sub = Leaf(0)
            for d in range(10_000):
                sub = Node(1 + d % 2, (Leaf(1 + d % 3), sub))
            tree = index_tree(sub, et.OutcomeSet(4))
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
            t = index_tree(root, et.OutcomeSet(n))
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
