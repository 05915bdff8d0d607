"""The three-player counterexample corpus: constructors and claims."""

import gc
import random
import tracemalloc

import numpy as np
import pytest

import eqtransfer as et
from eqtransfer import corpus, errors, normal_form
from conftest import random_structure
from reference_normal_form import (bit_instantiations_report,
                                   brute_find_all_ne,
                                   brute_is_nash_equilibrium, relation_of,
                                   sampled_relations, short_chain_report)

X, Y, Z = 0, 1, 2


def letters(rows):
    table = {"X": X, "Y": Y, "Z": Z}
    return [[table[ch] for ch in row.split()] for row in rows]


class TestRegistry:
    def test_listing_includes_statement_only_entries(self):
        names = dict(et.list_entries())
        for name in ("remark_5_3", "prop_5_4", "prop_5_5", "prop_5_6",
                     "prop_5_1", "prop_5_2"):
            assert name in names
        assert "statement only" in names["prop_5_1"]

    def test_unknown_name(self):
        with pytest.raises(et.UnknownNameError):
            et.build("nonsense")

    def test_statement_only_entries_have_no_claims(self):
        entry = et.build("prop_5_1")
        assert not entry.executable
        assert entry.claims == ()
        assert et.verify(entry) == []

    @pytest.mark.parametrize("name", ["remark_5_3", "prop_5_5", "prop_5_6",
                                      "prop_5_1"])
    def test_size_only_for_the_ladder(self, name):
        with pytest.raises(et.SchemaError, match="takes no size n"):
            et.build(name, n=5)

    def test_ladder_size_at_least_2(self):
        """Once a ValueError from the ladder constructor."""
        with pytest.raises(et.SchemaError,
                           match="n must be at least 2, got 1"):
            et.build("prop_5_4", 1)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_at_least_1(self, samples):
        """Once a sampled claim confirmed on "0/0" samples."""
        with pytest.raises(et.SchemaError,
                           match=f"samples must be at least 1, got {samples}"):
            et.verify(et.build("prop_5_4"), samples=samples)

    @pytest.mark.parametrize("name", [name for name, _ in et.list_entries()])
    def test_derived_fields(self, name):
        entry = et.build(name)
        assert entry.executable == (entry.game is not None)
        if entry.executable:
            assert entry.structure is entry.game.structure
        else:
            assert entry.structure is None
            assert entry.claims == ()

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_ladder_size_is_an_integer(self, n):
        """Once a TypeError from range() for 2.5."""
        with pytest.raises(et.SchemaError, match="n: .* is not an integer"):
            et.build("prop_5_4", n)

    @pytest.mark.parametrize("samples", [2.5, 1.0, True, "10"])
    def test_samples_is_an_integer(self, samples):
        """Once a TypeError for 2.5, and one sample for True."""
        with pytest.raises(et.SchemaError,
                           match="samples: .* is not an integer"):
            et.verify(et.build("prop_5_4"), samples=samples)

    def test_numpy_integers_pass(self):
        entry = et.build("prop_5_4", np.int64(3))
        assert entry.structure.strategy_counts == (3, 3, 3)
        reports = et.verify(entry, samples=np.int32(20))
        assert reports == et.verify(et.build("prop_5_4", 3), samples=20)

    def test_samples_capped(self):
        entry = et.build("prop_5_4")
        with pytest.raises(et.TooLargeError):
            et.verify(entry, samples=errors.MAX_SAMPLES + 1)


class TestRotatingGame:
    def test_structure(self):
        st = et.build("remark_5_3").structure
        l, r = 0, 1
        assert st.outcome((l, l, l)) == Y
        assert st.outcome((l, r, l)) == Y
        assert st.outcome((r, r, l)) == Y
        assert st.outcome((r, l, l)) == Z
        assert st.outcome((l, l, r)) == Z
        assert st.outcome((l, r, r)) == Z
        assert st.outcome((r, l, r)) == X
        assert st.outcome((r, r, r)) == X

    def test_claims_pass(self):
        entry = et.build("remark_5_3")
        reports = et.verify(entry)
        assert all(r.passed for r in reports)
        assert all(r.exhaustive for r in reports)
        assert "512/512" in reports[1].detail


class TestLadderGame:
    def test_displayed_arrays_bit_exact(self):
        st = et.build("prop_5_4", 4).structure
        want = [
            [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1], [4, 1, 1, 1]],
            [[1, 2, 1, 1], [2, 2, 2, 2], [1, 2, 1, 1], [4, 2, 1, 1]],
            [[1, 1, 3, 1], [1, 1, 3, 1], [3, 3, 3, 3], [4, 1, 3, 1]],
            [[2, 4, 4, 4], [4, 3, 4, 4], [4, 4, 4, 4], [0, 0, 0, 0]],
        ]
        for c in range(4):
            assert st.table[:, :, c].tolist() == want[c]

    @pytest.mark.parametrize("n", [101, 10 ** 6])
    def test_caps_n_before_building(self, n):
        """n**3 profiles above DEFAULT_PROFILE_CAP: refused before the
        table is allocated."""
        with pytest.raises(et.TooLargeError):
            et.build("prop_5_4", n)

    def test_n2_claims_exhaustive(self):
        reports = et.verify(et.build("prop_5_4", n=2))
        assert all(r.passed for r in reports)
        assert all(r.exhaustive for r in reports)

    @pytest.mark.parametrize("n", [3, 4])
    def test_larger_n_claims_sampled(self, n):
        reports = {r.claim: r for r in
                   et.verify(et.build("prop_5_4", n=n), samples=120)}
        assert all(r.passed for r in reports.values())
        assert reports["no-ne"].exhaustive
        assert reports["zero-sum-variant"].exhaustive
        assert not reports["short-chain-ne"].exhaustive

    def test_verification_is_seeded(self):
        entry = et.build("prop_5_4", n=3)
        a = et.verify(entry, seed=5, samples=40)
        b = et.verify(entry, seed=5, samples=40)
        assert a == b


class TestSixCubeGame:
    def test_displayed_section_bit_exact(self):
        st = et.build("prop_5_5").structure
        want = letters(["X Y Z X Y Z",
                        "Y Z X X Y Z",
                        "Z X Y X Y Z",
                        "X Y Z X Y Z",
                        "Y Z X X Y Z",
                        "Z X Y X Y Z"])
        assert st.table[:, :, 0].tolist() == want

    def test_claims_pass(self):
        reports = et.verify(et.build("prop_5_5"))
        assert all(r.passed for r in reports)
        assert all(r.exhaustive for r in reports)


class TestCuboidGame:
    def test_displayed_sections_bit_exact(self):
        st = et.build("prop_5_6").structure
        first = letters(["X Y X Z X Y Z",
                         "Y X Z X X Y Z",
                         "X Y X Z X Y Z",
                         "Y X Z X X Y Z"])
        last = letters(["X Y X Z Y Y Y",
                        "Y X Z X Z Z Z",
                        "Y Y Y Y Y Y Y",
                        "Z Z Z Z Z Z Z"])
        assert st.table[:, :, 0].tolist() == first
        assert st.table[:, :, 6].tolist() == last

    def test_claims_pass(self):
        reports = {r.claim: r for r in et.verify(et.build("prop_5_6"))}
        assert all(r.passed for r in reports.values())
        assert "6/6" in reports["ne-table"].detail

    def test_listed_profiles_explicitly(self):
        st = et.build("prop_5_6").structure
        for favourites, profile in corpus.PROP_5_6_NE_TABLE:
            prefs = et.PreferenceProfile(tuple(
                et.Preference.from_pairs(
                    3, [(o, best) for o in range(3) if o != best])
                for best in favourites))
            game = et.NormalFormGame(st, prefs)
            assert et.is_nash_equilibrium(game, tuple(s - 1 for s in profile))


def reference_verify(entry, seed, samples, monkeypatch):
    """corpus.verify with every equilibrium question answered profile by
    profile, and the two family claims run on Preference objects."""
    monkeypatch.setattr(et.corpus, "find_all_ne", brute_find_all_ne)
    monkeypatch.setattr(et.corpus, "is_nash_equilibrium",
                        brute_is_nash_equilibrium)
    reports = []
    for i, claim in enumerate(entry.claims):
        rng = random.Random(f"{seed}:{entry.name}:{i}")
        if claim.name == "short-chain-ne":
            reports.append(short_chain_report(entry.structure, rng, samples))
        elif claim.name == "bit-instantiations-have-ne":
            reports.append(bit_instantiations_report(entry.structure))
        else:
            reports.append(claim.check(rng, samples))
    return reports


class TestMaskKernelParity:
    @pytest.mark.parametrize("size", [*range(2, 10), 70])
    def test_sampled_relations_are_short_and_acyclic(self, size):
        """Each drawn relation is a strict partial order without a chain
        through all outcomes, and its word masks are its pairs in
        ``_words``' layout; at 70 outcomes the masks take two words.  (One
        outcome is a chain by itself, so it has no such relation.)"""
        chunks = list(corpus._short_chain_samples(random.Random(size), size,
                                                  40))
        assert sum(len(chunk[0]) for chunk in chunks) == 40
        for chunk in chunks:
            assert len(chunk) == (size + 63) // 64
            for t in range(len(chunk[0])):
                for p in range(3):
                    words = [w[t, p] for w in chunk]
                    pref = relation_of(words, size)
                    assert et.is_acyclic(pref)
                    assert et.height(pref) <= size - 1
                    expected = normal_form._words(pref.better_masks, size)
                    assert all(w.dtype == np.uint64 for w in words)
                    assert all(np.array_equal(w, e)
                               for w, e in zip(words, expected))

    def test_pair_frequency(self):
        """Each pair of positions is taken with probability 0.3; at nine
        outcomes almost no relation is redrawn for its height."""
        prefs = [pref for triple in sampled_relations(random.Random(9), 9,
                                                      1000)
                 for pref in triple]
        share = sum(len(p.pairs) for p in prefs) / (len(prefs) * 36)
        assert 0.28 <= share <= 0.32

    def test_orders_are_uniform(self):
        """The order is a uniform permutation: at four outcomes each
        ordered pair (x, y) is drawn about 0.3 / 2 of the time, in both
        directions, and each outcome is maximal (nothing drawn above it)
        equally often.  An order fixed to the identity would draw no pair
        downwards and leave outcome 3 always maximal."""
        prefs = [pref for triple in sampled_relations(random.Random(4), 4,
                                                      3000)
                 for pref in triple]
        for x in range(4):
            for y in range(4):
                if x != y:
                    share = sum(p.less(x, y) for p in prefs) / len(prefs)
                    assert 0.12 <= share <= 0.18, (x, y, share)
        maximal = [sum(not p.better_masks[o] for p in prefs) / len(prefs)
                   for o in range(4)]
        mean = sum(maximal) / 4
        assert all(abs(m - mean) <= 0.03 for m in maximal), maximal

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_claim_takes_one_draw(self, n):
        """A sampled claim seeds its numpy generator with one draw from
        its ``rng`` and takes nothing else from it; the exhaustive case
        (n = 2, three outcomes) draws nothing."""
        claim = et.build("prop_5_4", n).claims[-1]
        assert claim.name == "short-chain-ne"
        checked, drawn = random.Random(n), random.Random(n)
        claim.check(checked, 100)
        if n > 2:
            drawn.getrandbits(64)
        assert checked.getstate() == drawn.getstate()

    @pytest.mark.parametrize("name,n", [("remark_5_3", None),
                                        ("prop_5_5", None),
                                        ("prop_5_6", None)]
                             + [("prop_5_4", n) for n in range(2, 9)])
    def test_verify_reports_match_reference(self, name, n, monkeypatch):
        entry = et.build(name, n)
        for seed in (0, 3):
            fast = et.verify(entry, seed=seed, samples=60)
            assert fast == reference_verify(entry, seed, 60, monkeypatch)
            monkeypatch.undo()

    def test_short_chain_counts_match_reference_below_total(self):
        # a parity table, where every unilateral deviation switches
        # between outcomes 0 and 1, lacks equilibria under 540 of the 2,197
        # triples of relations of height 2 on three outcomes, and a few
        # small random structures under some sampled triples, so the
        # counts in the detail strings fall below their totals
        parity = np.indices((2, 2, 2)).sum(axis=0) % 2
        st = et.GameStructure((2, 2, 2), et.OutcomeSet(3), parity)
        claim = et.corpus._short_chain_claim(st)
        exhaustive = claim.check(random.Random(0), 0)
        assert exhaustive == short_chain_report(st, random.Random(0), 0)
        assert exhaustive.detail.startswith("1657/2197")
        rng = random.Random(3)
        failing = 0
        for _ in range(30):
            st = random_structure(rng, (2, 2, 2), 4)
            claim = et.corpus._short_chain_claim(st)
            sampled = claim.check(random.Random(1), 200)
            assert sampled == short_chain_report(st, random.Random(1), 200)
            failing += not sampled.passed
        assert failing == 2


class TestWitnessCells:
    """The short-chain claim tests each triple against its recent
    equilibrium cells first, and runs the mask kernel only when none
    serves."""

    def test_kernel_runs_on_few_triples(self, monkeypatch):
        calls = []
        kernel = et.corpus._ne_mask

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(et.corpus, "_ne_mask", counted)
        reports = {r.claim: r for r in et.verify(et.build("prop_5_4", 5),
                                                 seed=0, samples=300)}
        assert reports["short-chain-ne"].detail.startswith("300/300")
        assert len(calls) <= 30

    def test_multi_word_lines_match_reference(self):
        # 70 outcomes take two 64-bit words; the parity tables switch
        # between two outcomes at every unilateral deviation, so some
        # sampled triples have no equilibrium and a wrong witness shows
        rng = random.Random(70)
        structures = [random_structure(rng, (2, 2, 2), 70) for _ in range(6)]
        parity = np.indices((2, 2, 2)).sum(axis=0) % 2
        structures += [et.GameStructure((2, 2, 2), et.OutcomeSet(70),
                                        np.where(parity, v, u))
                       for u, v in ((63, 64), (0, 69), (64, 65))]
        failing = 0
        for st in structures:
            claim = et.corpus._short_chain_claim(st)
            report = claim.check(random.Random(2), 60)
            assert report == short_chain_report(st, random.Random(2), 60)
            failing += not report.passed
        assert failing == 3


class TestShortChainMemory:
    """The sampler draws in chunks of 1,024 coins, or of 8 triples where
    those take more coins (from 10 outcomes on), so its memory stays flat
    in n while the coin budget rules and is bounded by 8 triples after."""

    @staticmethod
    def traced_peak_mb(run) -> float:
        run()  # pays one-time costs
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
        finally:
            tracemalloc.stop()

    def test_claim_peak_at_the_bench_size(self):
        # n = 7 with 300 samples is the benchmark's peak-memory corpus op,
        # whose other steps peak near 0.08 MB: chunks of 1,024 coins read
        # 0.038-0.039 MB here and raise that op's peak by 0.2%, while
        # chunks of 1,536 read 0.046 MB and raise it by 9%
        claim = et.build("prop_5_4", 7).claims[-1]
        peak = self.traced_peak_mb(
            lambda: claim.check(random.Random(0), 300))
        assert peak <= 0.042

    def test_sampler_peak_flat_in_n(self):
        def draw(n):
            return lambda: sum(len(chunk[0]) for chunk in
                               corpus._short_chain_samples(
                                   random.Random(n), n + 1, 1000))

        assert self.traced_peak_mb(draw(8)) <= 1.5 * self.traced_peak_mb(
            draw(6))
        # 8 triples over 31 outcomes are 11,160 coins: 0.13 MB here
        assert self.traced_peak_mb(draw(30)) <= 0.25
