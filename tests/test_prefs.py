"""Preference relations, heights, linear extensions, and the power-set lift."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import eqtransfer as et
from eqtransfer import prefs
from eqtransfer.prefs import _lift_less, _lift_less_existential, _upward_cone
from conftest import random_acyclic_preference


def subsets(n):
    for r in range(n + 1):
        yield from itertools.combinations(range(n), r)


class TestBasics:
    def test_outcome_set_validation(self):
        with pytest.raises(ValueError):
            et.OutcomeSet(0)
        with pytest.raises(ValueError):
            et.OutcomeSet(2, ("a",))
        with pytest.raises(ValueError):
            et.OutcomeSet(2, ("a", "a"))
        assert et.OutcomeSet(2).label(1) == "1"
        assert et.OutcomeSet(2, ("x", "y")).label(1) == "y"

    def test_labels_kept_as_a_tuple(self):
        """Labels given as a list equal, hash and share a profile like the
        same labels given as a tuple; one string is refused, not split."""
        listed = et.OutcomeSet(3, ["a", "b", "c"])
        tupled = et.OutcomeSet(3, ("a", "b", "c"))
        assert listed == tupled and listed.labels == ("a", "b", "c")
        assert hash(listed) == hash(tupled)
        profile = et.PreferenceProfile((et.Preference(listed, [(0, 1)]),
                                        et.Preference(tupled, [(1, 0)])))
        assert profile.outcomes == tupled
        with pytest.raises(ValueError, match="one string 'ab'"):
            et.OutcomeSet(2, "ab")
        with pytest.raises(ValueError, match="one string 'ab'"):
            et.Preference.from_pairs(2, [], "ab")

    def test_preference_range_check(self):
        with pytest.raises(ValueError):
            et.Preference.from_pairs(2, [(0, 2)])

    def test_from_ranking(self):
        p = et.Preference.from_ranking([2, 0, 1])
        assert p.less(2, 0) and p.less(2, 1) and p.less(0, 1)
        assert not p.less(1, 0)
        assert et.is_strict_linear(p)

    def test_inverse_involution(self):
        p = et.Preference.from_pairs(3, [(0, 1), (1, 2)])
        assert p.inverse().inverse() == p

    def test_profile_requires_shared_outcomes(self):
        a = et.Preference.from_pairs(2, [])
        b = et.Preference.from_pairs(3, [])
        with pytest.raises(ValueError):
            et.PreferenceProfile((a, b))

    def test_profile_needs_a_preference(self):
        with pytest.raises(ValueError) as caught:
            et.PreferenceProfile(())
        assert str(caught.value) == ("profile must contain at least one "
                                     "preference")

    @pytest.mark.parametrize("size", [2.5, True, "2", None])
    def test_outcome_count_must_be_an_integer(self, size):
        with pytest.raises(ValueError, match="outcome count"):
            et.OutcomeSet(size)

    @pytest.mark.parametrize("pairs", [[(0, 1.7)], [(True, 2)], [(0, "1")],
                                       [(0, 1), (1, None)]])
    def test_pairs_must_be_integers(self, pairs):
        with pytest.raises(ValueError, match="preference pairs"):
            et.Preference.from_pairs(3, pairs)
        with pytest.raises(ValueError, match="preference pairs"):
            et.Preference(et.OutcomeSet(3), frozenset(pairs))

    @pytest.mark.parametrize("twin", [(0, True), (0, 1.0)])
    def test_twin_of_an_int_pair_refused_in_either_order(self, twin):
        # (0, True) and (0, 1.0) equal (0, 1), so a set of the pairs keeps
        # whichever comes first
        for pairs in ([(0, 1), twin], [twin, (0, 1)]):
            with pytest.raises(ValueError, match="preference pairs"):
                et.Preference.from_pairs(3, pairs)

    def test_pairs_must_be_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            et.Preference.from_pairs(3, [(0, 1, 2)])

    def test_numpy_integers_pass(self):
        p = et.Preference.from_pairs(np.int64(3), [(np.int32(0), np.uint8(1)),
                                                   [np.int64(1), 2]])
        assert p == et.Preference.from_pairs(3, [(0, 1), (1, 2)])
        assert {type(v) for pair in p.pairs for v in pair} == {int}
        assert type(p.outcomes.size) is int


def random_relation(rng: random.Random) -> et.Preference:
    """Any relation on up to 7 outcomes: cycles and self-loops included."""
    n = rng.randint(1, 7)
    density = rng.choice((0.05, 0.15, 0.3, 0.6))
    return et.Preference.from_pairs(n, [
        (x, y) for x in range(n) for y in range(n) if rng.random() < density])


class TestDerivedOnce:
    def test_kept_order_matches_a_fresh_one(self):
        rng = random.Random(1000)
        acyclic = 0
        for _ in range(1000):
            p = random_relation(rng)
            fresh = et.Preference(p.outcomes, p.pairs)
            assert p.kahn_order == tuple(prefs._kahn_order(fresh))
            assert p.kahn_order is p.kahn_order
            acyclic += et.is_acyclic(p)
            assert et.is_acyclic(p) == (
                len(prefs._kahn_order(fresh)) == p.outcomes.size)
            if et.is_acyclic(p):
                assert et.linear_extension(p) == prefs._kahn_order(fresh)
        assert 0 < acyclic < 1000

    def test_better_masks_hold_the_pairs(self):
        rng = random.Random(1001)
        for _ in range(200):
            p = random_relation(rng)
            assert p.better_masks == tuple(
                sum(1 << y for y in range(p.outcomes.size) if p.less(x, y))
                for x in range(p.outcomes.size))

    def test_linear_extension_is_a_fresh_list(self):
        p = et.Preference.from_pairs(3, [(2, 0)])
        et.linear_extension(p).append(7)
        assert et.linear_extension(p) == [1, 2, 0]


class TestAcyclicityHeightRank:
    def test_acyclic_cases(self):
        assert et.is_acyclic(et.Preference.from_pairs(3, [(0, 1), (1, 2)]))
        assert not et.is_acyclic(et.Preference.from_pairs(2, [(0, 1), (1, 0)]))
        assert not et.is_acyclic(et.Preference.from_pairs(1, [(0, 0)]))

    def test_height_antichain_is_one(self):
        assert et.height(et.Preference.from_pairs(3, [])) == 1

    def test_height_chain_counts_outcomes(self):
        p = et.Preference.from_pairs(3, [(0, 1), (1, 2)])
        assert et.height(p) == 3

    def test_height_cyclic_is_none(self):
        assert et.height(et.Preference.from_pairs(2, [(0, 1), (1, 0)])) is None

    def test_rank_frozen_example(self):
        # both 0 and 1 sit below 2 and are mutually incomparable
        r = et.rank(et.Preference.from_pairs(3, [(0, 2), (1, 2)]))
        assert r == (0, 0, 1)
        assert r[2] == 1

    def test_unbounded_height_is_cyclicity(self):
        assert et.UnboundedHeightError is et.CyclicPreferenceError

    def test_rank_rejects_cycle(self):
        with pytest.raises(et.CyclicPreferenceError):
            et.rank(et.Preference.from_pairs(2, [(0, 1), (1, 0)]))

    def test_rank_monotone_random(self, rng):
        for _ in range(50):
            p = random_acyclic_preference(rng, rng.randint(1, 7))
            r = et.rank(p)
            for x, y in p.pairs:
                assert r[x] < r[y]


class TestLinearExtension:
    def test_frozen_example(self):
        # 1 and 2 are both ready at the start; the lower index goes first
        assert et.linear_extension(et.Preference.from_pairs(3, [(2, 0)])) \
            == [1, 2, 0]

    def test_rejects_cycle(self):
        with pytest.raises(et.CyclicPreferenceError):
            et.linear_extension(et.Preference.from_pairs(2, [(0, 1), (1, 0)]))

    def test_respects_relation_random(self, rng):
        for _ in range(50):
            p = random_acyclic_preference(rng, rng.randint(1, 7))
            order = et.linear_extension(p)
            pos = {o: i for i, o in enumerate(order)}
            assert sorted(order) == list(range(p.outcomes.size))
            for x, y in p.pairs:
                assert pos[x] < pos[y]

    @given(hst.permutations(list(range(6))))
    def test_recovers_linear_orders(self, ranking):
        p = et.Preference.from_ranking(ranking)
        assert et.linear_extension(p) == list(ranking)


class TestStrictLinear:
    def test_partial_is_not_linear(self):
        assert not et.is_strict_linear(et.Preference.from_pairs(3, [(0, 1)]))

    def test_cyclic_is_not_linear(self):
        assert not et.is_strict_linear(
            et.Preference.from_pairs(2, [(0, 1), (1, 0)]))

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_textbook_definition_exhaustive(self, n):
        """Irreflexive, transitive and total, on every relation over n
        outcomes."""
        cells = list(itertools.product(range(n), repeat=2))
        linear = 0
        for chosen in itertools.product((False, True), repeat=len(cells)):
            rel = {c for c, keep in zip(cells, chosen) if keep}
            textbook = (
                all((x, x) not in rel for x in range(n))
                and all((x, z) in rel for x, y in rel
                        for y2, z in rel if y == y2)
                and all((x, y) in rel or (y, x) in rel
                        for x, y in cells if x != y))
            linear += textbook
            assert et.is_strict_linear(et.Preference.from_pairs(n, rel)) \
                == textbook
        assert linear == math.factorial(n)


class TestLift:
    def test_worked_example_complement_words(self):
        # outcomes o1 < ... < o5 as indices 0..4
        linear = [0, 1, 2, 3, 4]
        a = {1, 2, 3, 4}
        b = {1, 3}
        word = lambda s: "".join("0" if o in s else "1" for o in linear)
        assert word(a) == "10000" and word(b) == "10101"
        assert _lift_less(linear, a, b)
        assert not _lift_less(linear, b, a)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_complement_lex_exhaustive(self, n):
        linear = list(range(n))
        for a in subsets(n):
            for b in subsets(n):
                lex = tuple(0 if o in a else 1 for o in linear) \
                    < tuple(0 if o in b else 1 for o in linear)
                assert _lift_less(linear, a, b) == lex

    @pytest.mark.parametrize("n", [3, 4])
    def test_strict_total_order_exhaustive(self, n):
        linear = list(range(n))
        subs = list(subsets(n))
        for a in subs:
            assert not _lift_less(linear, a, a)
            for b in subs:
                if set(a) != set(b):
                    assert _lift_less(linear, a, b) \
                        != _lift_less(linear, b, a)
                for c in subs:
                    if _lift_less(linear, a, b) and _lift_less(linear, b, c):
                        assert _lift_less(linear, a, c)

    def test_existential_form_agrees_on_linear_input(self, rng):
        for _ in range(30):
            n = rng.randint(1, 5)
            ranking = list(range(n))
            rng.shuffle(ranking)
            p = et.Preference.from_ranking(ranking)
            subs = list(subsets(n))
            for _ in range(40):
                a, b = rng.choice(subs), rng.choice(subs)
                assert _lift_less(ranking, a, b) \
                    == _lift_less_existential(p, a, b)

    def test_existential_form_on_partial_input(self):
        p = et.Preference.from_pairs(3, [(0, 2)])
        assert _lift_less_existential(p, {0}, {2})
        assert not _lift_less_existential(p, {0}, {1})


class TestUpwardCone:
    def test_cone_contains_seeds_and_successors(self):
        p = et.Preference.from_pairs(4, [(0, 1), (1, 2)])
        assert _upward_cone(p, {0}) == {0, 1, 2}
        assert _upward_cone(p, {3}) == {3}

    @settings(max_examples=50)
    @given(hst.data())
    def test_cone_is_closed(self, data):
        n = data.draw(hst.integers(1, 6))
        pairs = data.draw(hst.lists(
            hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1)),
            max_size=12))
        p = et.Preference.from_pairs(n, pairs)
        seeds = data.draw(hst.sets(hst.integers(0, n - 1), max_size=n))
        cone = _upward_cone(p, seeds)
        assert seeds <= cone
        for x in cone:
            for y in (b for a, b in p.pairs if a == x):
                assert y in cone
