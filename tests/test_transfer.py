"""The oracle-driven transfer and its companion reductions."""

import copy
import dataclasses
import pickle
import random

import numpy as np
import pytest

import eqtransfer as et
from eqtransfer import jsonio
from eqtransfer.normal_form import (_eliminate_dominated_outcomes,
                                   _enforceable_finite_cone,
                                   _finite_height_reduce, _minimax_transfer)
from eqtransfer.prefs import _lift_less, _upward_cone
from conftest import (FIXTURES, fixture_path, random_acyclic_preference,
                      random_determined_structure, random_muller_game,
                      random_priority_game, random_structure, random_tree)
from reference_normal_form import can_enforce


def profile_for(st, rng):
    return et.PreferenceProfile(tuple(
        random_acyclic_preference(rng, st.outcomes.size)
        for _ in range(st.players)))


class LoggingOracle(et.WinLoseOracle):
    """A counting wrapper on the test side: it logs each winner query as
    ``(label, winner)`` and each strategy query's label."""

    def __init__(self, inner: et.WinLoseOracle):
        self.inner, self.probes, self.strategies = inner, [], []

    @property
    def n_outcomes(self) -> int:
        return self.inner.n_outcomes

    def winner(self, label: int) -> int:
        self.probes.append((label, self.inner.winner(label)))
        return self.probes[-1][1]

    def strategy(self, label: int) -> et.OracleStrategy:
        self.strategies.append(label)
        return self.inner.strategy(label)


class TestMaxEnforceableWord:
    def test_exact_winner_call_count(self, rng):
        for _ in range(30):
            st = random_determined_structure(rng)
            logging = LoggingOracle(et.StructureOracle(st))
            n = st.outcomes.size
            word, probes = et.max_enforceable_word(logging, n, list(range(n)))
            assert probes == tuple(logging.probes) and len(probes) == n
            assert logging.strategies == []
            assert can_enforce(st, 1, word)

    def test_result_is_lift_greatest(self, rng):
        for _ in range(30):
            st = random_determined_structure(rng, max_outcomes=4)
            n = st.outcomes.size
            linear = list(range(n))
            word, _ = et.max_enforceable_word(
                et.StructureOracle(st), n, linear)
            members = [o for o in range(n) if word >> o & 1]
            for label in range(1 << n):
                if can_enforce(st, 1, label):
                    others = [o for o in range(n) if label >> o & 1]
                    assert not _lift_less(linear, members, others)


def random_game(kind: str, rng: random.Random):
    """A small determined game of one backend's kind, with random acyclic
    preferences."""
    if kind == "normal form":
        st = random_determined_structure(rng)
        return et.NormalFormGame(st, profile_for(st, rng))
    if kind == "tree":
        tree = random_tree(rng, rng.randint(1, 5))
        return tree, profile_for(et.to_normal_form(tree), rng)
    if kind == "priority":
        return random_priority_game(rng)
    return random_muller_game(rng)


@pytest.mark.parametrize("kind", ["normal form", "tree", "priority",
                                  "Muller"])
def test_probe_log_is_what_the_oracle_was_asked(kind):
    """On 500 seeded games per backend, the verified result's log equals
    a logging wrapper's record of the same transfer: n winner queries,
    then strategy queries on ``enforced`` and ``drop``."""
    rng = random.Random(kind)
    for _ in range(500):
        game = random_game(kind, rng)
        result = et.equilibrium(game)
        backend, prefs = backend_by_hand(game)
        logging = LoggingOracle(backend)
        again = et.run_transfer(logging, prefs)
        assert (again.outcome, again.enforced, again.drop, again.probes) == (
            result.outcome, result.enforced, result.drop, result.probes)
        assert result.probes == tuple(logging.probes)
        assert logging.strategies == [result.enforced, result.drop]
        n = prefs.outcomes.size
        assert (result.counter.winner_calls, result.counter.strategy_calls,
                len(result.probes)) == (n, 2, n)


class TestTransferEquilibrium:
    def test_random_determined_games(self, rng):
        for _ in range(60):
            st = random_determined_structure(rng)
            game = et.NormalFormGame(st, profile_for(st, rng))
            profile, counter = et.transfer_equilibrium(game)
            assert et.is_nash_equilibrium(game, profile)
            assert counter.winner_calls <= st.outcomes.size
            assert counter.strategy_calls <= 2

    def test_matching_pennies_not_determined(self):
        st = et.GameStructure((2, 2), et.OutcomeSet(2), [[0, 1], [1, 0]])
        prefs = et.PreferenceProfile((
            et.Preference.from_pairs(2, [(1, 0)]),
            et.Preference.from_pairs(2, [(0, 1)]),
        ))
        with pytest.raises(et.NotDeterminedError):
            et.transfer_equilibrium(et.NormalFormGame(st, prefs))

    def test_matching_pennies_certificate(self):
        st = et.GameStructure((2, 2), et.OutcomeSet(2), [[0, 1], [1, 0]])
        prefs = et.PreferenceProfile((
            et.Preference.from_pairs(2, [(0, 1)]),
            et.Preference.from_pairs(2, [(1, 0)]),
        ))
        # the profile (0, 0) plays the promised 0; player 1 switches rows
        with pytest.raises(et.NotDeterminedError, match="player 1") as info:
            et.equilibrium(et.StructureOracle(st), prefs)
        assert (info.value.deviator, info.value.outcome) == (1, 1)
        # with the preferences swapped the profile misses the promised
        # outcome, which is no deviation and carries no certificate
        with pytest.raises(et.NotDeterminedError, match="promised") as info:
            et.equilibrium(et.StructureOracle(st), et.PreferenceProfile(
                tuple(reversed(prefs.prefs))))
        assert (info.value.deviator, info.value.outcome) == (None, None)

    def test_cyclic_preferences_rejected(self):
        st = et.GameStructure((2, 2), et.OutcomeSet(2), [[0, 1], [1, 0]])
        cyc = et.Preference.from_pairs(2, [(0, 1), (1, 0)])
        prefs = et.PreferenceProfile((cyc, cyc))
        with pytest.raises(et.CyclicPreferenceError):
            et.transfer_equilibrium(et.NormalFormGame(st, prefs))

    def test_one_kahn_run_per_preference(self, rng, monkeypatch):
        """The acyclicity check and the linear extension read one order per
        preference, kept with it; the tree backend is counted too."""
        runs = []
        kahn = et.prefs._kahn_order
        monkeypatch.setattr(et.prefs, "_kahn_order",
                            lambda p: runs.append(p) or kahn(p))
        for _ in range(20):
            st = random_determined_structure(rng)
            prefs = profile_for(st, rng)
            runs.clear()
            et.equilibrium(et.StructureOracle(st), prefs)
            assert len(runs) == 2 and runs[0] is prefs[0] \
                and runs[1] is prefs[1]
            et.equilibrium(et.StructureOracle(st), prefs)
            assert len(runs) == 2
        tree = random_tree(rng, 4)
        prefs = profile_for(et.to_normal_form(tree), rng)
        runs.clear()
        et.kuhn_via_transfer(tree, prefs)
        assert len(runs) == 2

    @pytest.mark.parametrize("winner, player, message", [
        (1, 1, "oracle claims player 1 enforces the empty set"),
        (2, 2, "oracle answers are inconsistent with a determined "
               "structure")])
    def test_lying_oracle_refused(self, winner, player, message):
        """An oracle that says player 1 wins every label, and one whose
        strategies are all player 2's."""

        class Lying(et.WinLoseOracle):
            n_outcomes = 2

            def winner(self, label):
                return winner

            def strategy(self, label):
                return et.OracleStrategy(player, 0)

        prefs = et.PreferenceProfile((et.Preference.from_pairs(2, []),) * 2)
        with pytest.raises(et.NotDeterminedError) as caught:
            et.run_transfer(Lying(), prefs)
        assert str(caught.value) == message

    def test_three_players_rejected(self):
        game = et.build("remark_5_3").game
        with pytest.raises(ValueError):
            et.transfer_equilibrium(game)

    @pytest.mark.parametrize("players, outcomes, message", [
        (3, 3, "transfer needs a two-player game, got 3 players"),
        (2, 5, "transfer needs preferences over the game's 3 outcomes, "
               "got 5")])
    def test_unfit_tree_preferences_refused(self, players, outcomes,
                                            message):
        """A ``(tree, prefs)`` pair has no constructor of its own to check
        it: the transfer refuses preferences that do not fit the tree."""
        tree, _ = jsonio.load(fixture_path("intro_payoff_tree.json"))
        prefs = et.PreferenceProfile(
            (et.Preference.from_pairs(outcomes, [(0, 1)]),) * players)
        with pytest.raises(et.SchemaError) as caught:
            et.equilibrium((tree, prefs))
        assert isinstance(caught.value, ValueError)
        assert str(caught.value) == message


NOT_A_GAME = "input must be a game with preferences"
# What ``equilibrium(game)`` refuses with SchemaError, and the message: the
# plain arena, the bare tree and the bare structures among the fixtures,
# the three-player game, and values that are no game at all.
REFUSED = {"arena_small.json": NOT_A_GAME, "intro_structure.json": NOT_A_GAME,
           "xy_yx.json": NOT_A_GAME, "xz_yy.json": NOT_A_GAME,
           "remark_5_3.json": "transfer needs a two-player game, got 3 players",
           "None": NOT_A_GAME, "7": NOT_A_GAME}
NORMAL_FORM = "normal form of intro_payoff_tree.json"
NO_GAME = {"None": None, "7": 7}


def entry_point_input(name: str):
    """A fixture as ``jsonio`` loads it, the payoff tree's normal form, or
    a value that is no game."""
    if name == NORMAL_FORM:
        tree, prefs = jsonio.load(fixture_path("intro_payoff_tree.json"))
        return et.NormalFormGame(et.to_normal_form(tree), prefs)
    if name in NO_GAME:
        return NO_GAME[name]
    return jsonio.load(fixture_path(name))


def backend_by_hand(game):
    """The backend of each kind and its preferences, built directly."""
    if isinstance(game, tuple):
        return et.TreeOracle(game[0]), game[1]
    if isinstance(game, et.NormalFormGame):
        return et.StructureOracle(game.structure), game.preferences
    oracle = et.PriorityOracle if game.kind == "priority" else et.MullerOracle
    return oracle(game), game.preferences


def handle_data(handle):
    """A strategy handle as comparable data: an index, or a machine's
    fields."""
    return handle if isinstance(handle, int) else vars(handle)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json"))
                         + [NORMAL_FORM, *NO_GAME])
def test_equilibrium_of_every_loaded_game(name):
    """``equilibrium(game)`` runs the backend the game's kind calls for, as
    ``equilibrium(backend, prefs)`` does with it built by hand; anything
    else is refused with a typed SchemaError."""
    game = entry_point_input(name)
    if name in REFUSED:
        with pytest.raises(et.SchemaError, match=f"^{REFUSED[name]}$"):
            et.equilibrium(game)
        return
    want, got = et.equilibrium(*backend_by_hand(game)), et.equilibrium(game)
    assert (got.outcome, got.enforced, got.counter) == (
        want.outcome, want.enforced, want.counter)
    assert [handle_data(h) for h in got.profile] == [
        handle_data(h) for h in want.profile]


@pytest.mark.parametrize("name", ["intro_payoff_tree.json",
                                  "intro_payoff_tree_flat.json",
                                  "intro_winlose_tree.json"])
def test_tree_and_preferences_as_two_arguments(name):
    """Once an AttributeError: ``equilibrium(tree, prefs)`` is the pair's
    transfer, in outcome, enforced set, call counts and handles."""
    tree, prefs = jsonio.load(fixture_path(name))
    assert et.equilibrium(tree, prefs) == et.equilibrium((tree, prefs))


@pytest.mark.parametrize("value", ["x", None, 7])
def test_no_game_with_preferences_refused(value):
    """Once an AttributeError: with preferences, what is no backend is
    taken as a model and refused when it is none."""
    _, prefs = jsonio.load(fixture_path("intro_payoff_tree.json"))
    with pytest.raises(et.SchemaError, match=f"^{NOT_A_GAME}$"):
        et.equilibrium(value, prefs)


@pytest.mark.parametrize("prefs", ["x", 7, ("a", "b")])
def test_backend_with_no_preference_profile_refused(prefs):
    """Once an AttributeError ('str' object has no attribute 'players'):
    ``run_transfer``, and ``equilibrium`` with a backend, refuse
    preferences that are no ``PreferenceProfile``, naming what they got."""
    game = jsonio.load(fixture_path("priority_game.json"))
    backend = et.PriorityOracle(game)
    message = ("^transfer needs a PreferenceProfile, got "
               f"{type(prefs).__name__}$")
    for call in (et.run_transfer, et.equilibrium):
        with pytest.raises(et.SchemaError, match=message):
            call(backend, prefs)


def frozen_cases():
    """Per model: a game, the model in it, and an edit that once broke the
    game's transfer.  The tree's cycle hung it, the arena's reversed
    successors made a strategy move along a non-edge, and the table no
    longer matched the structure's kept row masks."""
    outcomes = et.OutcomeSet(2)
    prefs = et.PreferenceProfile((et.Preference.from_pairs(2, [(0, 1)]),
                                  et.Preference.from_pairs(2, [(1, 0)])))
    tree = et.GameTree((1, 2), ((1, ~0), (~0, ~1)), 0, outcomes)
    arena_game = jsonio.load(fixture_path("priority_game.json"))
    st = et.GameStructure((2, 2), outcomes, [0, 0, 1, 1])
    return [((tree, prefs), tree, "children", ((1, ~0), (0, ~1))),
            (arena_game, arena_game.arena, "succ",
             tuple(reversed(arena_game.arena.succ))),
            (et.NormalFormGame(st, prefs), st, "table",
             np.ones((2, 2), dtype=np.int64))]


@pytest.mark.parametrize("game, model, field, value", frozen_cases(),
                         ids=["tree", "arena", "structure"])
def test_models_are_frozen(game, model, field, value):
    """Assignment and deletion raise, after a transfer has filled the
    model's kept values too, and the copies are frozen as well."""
    def answer():
        result = et.equilibrium(game)
        return result.outcome, result.enforced, result.counter, [
            handle_data(h) for h in result.profile]

    want = answer()
    for again in (model, pickle.loads(pickle.dumps(model)),
                  copy.deepcopy(model)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(again, field, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(again, field)
        assert vars(again).keys() == vars(model).keys()
    assert answer() == want


class TestEnforceableFiniteCone:
    def test_cone_is_enforceable_and_upward_closed(self, rng):
        for _ in range(30):
            st = random_determined_structure(rng)
            game = et.NormalFormGame(st, profile_for(st, rng))
            for player in (1, 2):
                cone = _enforceable_finite_cone(game, player)
                assert cone is not None
                pref = game.preferences[player - 1]
                assert _upward_cone(pref, cone) == cone
                word = sum(1 << o for o in cone)
                assert et.enforcing_strategy(st, player, word) is not None

    @pytest.mark.parametrize("player", [0, 3])
    def test_players_other_than_1_and_2_refused(self, player):
        """Once player 0 answered with player 2's preference and columns,
        and player 3 ended in an IndexError from the preference tuple."""
        st = et.GameStructure((2, 2), et.OutcomeSet(3), [[0, 1], [2, 0]])
        game = et.NormalFormGame(st, et.PreferenceProfile((
            et.Preference.from_ranking([0, 1, 2]),
            et.Preference.from_ranking([2, 1, 0]))))
        for call in (lambda: _enforceable_finite_cone(game, player),
                     lambda: et.enforcing_strategy(st, player, 0b111)):
            with pytest.raises(et.BadIndexError,
                               match=f"player must be 1 or 2, got {player}"):
                call()


class TestMinimaxTransfer:
    def inverse_game(self, rng, st):
        ranking = list(range(st.outcomes.size))
        rng.shuffle(ranking)
        p1 = et.Preference.from_ranking(ranking)
        return et.NormalFormGame(st, et.PreferenceProfile((p1, p1.inverse())))

    def test_ne_and_unique_outcome(self, rng):
        for _ in range(60):
            st = random_determined_structure(rng)
            game = self.inverse_game(rng, st)
            profile = _minimax_transfer(game)
            assert et.is_nash_equilibrium(game, profile)
            value = st.outcome(profile)
            for other in et.find_all_ne(game):
                assert st.outcome(other) == value

    def test_rejects_non_inverse_preferences(self):
        st = et.GameStructure((2, 2), et.OutcomeSet(2), [[0, 1], [1, 0]])
        p = et.Preference.from_ranking([0, 1])
        with pytest.raises(et.NotZeroSumError):
            _minimax_transfer(
                et.NormalFormGame(st, et.PreferenceProfile((p, p))))

    def test_rejects_partial_order(self):
        st = et.GameStructure((2, 2), et.OutcomeSet(3), [[0, 1], [2, 0]])
        p = et.Preference.from_pairs(3, [(0, 1)])
        with pytest.raises(et.NotZeroSumError):
            _minimax_transfer(
                et.NormalFormGame(st, et.PreferenceProfile((p, p.inverse()))))


class TestEliminateDominatedOutcomes:
    def eligible_instance(self, rng):
        """A game plus a player-1 strategy whose outcomes all sit strictly
        above some outcome o for player 1."""
        while True:
            st = random_structure(
                rng, (rng.randint(2, 4), rng.randint(2, 4)), rng.randint(2, 5))
            n = st.outcomes.size
            r1, r2 = list(range(n)), list(range(n))
            rng.shuffle(r1)
            rng.shuffle(r2)
            p1 = et.Preference.from_ranking(r1)
            p2 = et.Preference.from_ranking(r2)
            game = et.NormalFormGame(st, et.PreferenceProfile((p1, p2)))
            for e in range(st.strategy_counts[0]):
                reached = {st.outcome((e, j))
                           for j in range(st.strategy_counts[1])}
                below = [o for o in range(n)
                         if all(p1.less(o, x) for x in reached)]
                if below:
                    return game, e, rng.choice(below)

    def test_reduced_ne_are_original_ne(self, rng):
        for _ in range(100):
            game, e, o = self.eligible_instance(rng)
            reduced = _eliminate_dominated_outcomes(game, e, o)
            assert reduced.structure.outcomes.size <= game.structure.outcomes.size
            for profile in et.find_all_ne(reduced):
                assert et.is_nash_equilibrium(game, profile)

    def test_hypothesis_violation_detected(self):
        st = et.GameStructure((2, 2), et.OutcomeSet(3), [[0, 1], [2, 0]])
        p = et.Preference.from_ranking([0, 1, 2])
        game = et.NormalFormGame(st, et.PreferenceProfile((p, p)))
        # strategy 0 reaches outcomes {0, 1}, which are not all above 1
        with pytest.raises(et.HypothesisViolatedError):
            _eliminate_dominated_outcomes(game, 0, 1)


class TestFiniteHeightReduce:
    def test_reduced_ne_are_original_ne(self, rng):
        for _ in range(100):
            st = random_structure(
                rng, (rng.randint(1, 4), rng.randint(1, 4)), rng.randint(1, 5))
            prefs = et.PreferenceProfile((
                random_acyclic_preference(rng, st.outcomes.size),
                random_acyclic_preference(rng, st.outcomes.size)))
            game = et.NormalFormGame(st, prefs)
            reduced = _finite_height_reduce(game)
            assert reduced.structure.strategy_counts == st.strategy_counts
            for profile in et.find_all_ne(reduced):
                assert et.is_nash_equilibrium(game, profile)

    def test_rejects_cyclic(self):
        st = et.GameStructure((2, 2), et.OutcomeSet(2), [[0, 1], [1, 0]])
        cyc = et.Preference.from_pairs(2, [(0, 1), (1, 0)])
        game = et.NormalFormGame(st, et.PreferenceProfile((cyc, cyc)))
        with pytest.raises(et.UnboundedHeightError):
            _finite_height_reduce(game)
