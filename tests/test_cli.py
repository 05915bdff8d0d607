"""Command-line interface: exit codes, text output, and JSON reports."""

import io
import itertools
import json
import random
import shlex
import sys
import time
from pathlib import Path

import pytest

import eqtransfer as et
from eqtransfer import cli, errors, extensive, graph_games, jsonio
from conftest import (FIXTURES, fixture_path, random_acyclic_preference,
                      random_tree)
from limits import caterpillar_text, colour_ring, wide_caterpillar
from reference_graph import all_positional_strategies
from reference_normal_form import brute_enforcing_strategy


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_from_obj(obj, arena) -> et.FiniteMemoryStrategy:
    """A strategy rebuilt from its printed ``finite-memory`` or
    ``positional`` form."""
    if obj["type"] == "positional":
        return et.FiniteMemoryStrategy.positional(
            arena, obj["player"], {int(v): w for v, w in obj["moves"].items()})
    assert obj["type"] == "finite-memory"
    assert obj["states"] == len(obj["vertex"])
    return et.FiniteMemoryStrategy(
        obj["player"], obj["vertex"], obj["succ"], obj["move"],
        {int(v): s for v, s in obj["entry"].items()})


# A Muller game where player 1 wins outcome 1, all three colours, only by
# alternating between vertices 1 and 2, so their strategy needs memory.
MEMORY_MULLER = {
    "format": 1, "vertices": 3, "owned": [0],
    "edges": [[0, 1], [0, 2], [1, 0], [2, 0]], "colors": [0, 1, 2],
    "start": 0, "kind": "muller", "outcomes": 2,
    "r": [[s, int(len(s) == 3)] for s in
          ([0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])],
    "preferences": [{"pairs": [[0, 1]]}, {"pairs": [[1, 0]]}]}


MATCHING_PENNIES = {
    "format": 1, "strategies": [2, 2], "v": [0, 1, 1, 0], "outcomes": 2,
    "preferences": [{"pairs": [[1, 0]]}, {"pairs": [[0, 1]]}]}


def transfer_oracle(capsys, path: str) -> str:
    """The backend ``transfer`` names for the input."""
    code, out, _ = run(capsys, "--json", "transfer", path)
    assert code == cli.EXIT_OK
    return json.loads(out)["oracle"]


class TestSolve:
    def test_solve_tree_with_preferences(self, capsys):
        code, out, _ = run(capsys, "solve", fixture_path("intro_payoff_tree.json"))
        assert code == cli.EXIT_OK
        assert "Nash equilibria" in out

    def test_solve_json_output(self, capsys):
        code, out, _ = run(capsys, "--json", "solve",
                           fixture_path("intro_winlose_tree.json"))
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["command"] == "solve"
        assert [0, 3] in report["equilibria"]

    def test_structure_without_preferences_rejected(self, capsys):
        code, _, err = run(capsys, "solve", fixture_path("xy_yx.json"))
        assert code == cli.EXIT_INPUT
        assert "error:" in err


class TestCheckDeterminacy:
    def test_not_determined_exits_1(self, capsys):
        code, out, _ = run(capsys, "check-determinacy",
                           fixture_path("xy_yx.json"))
        assert code == cli.EXIT_FAIL
        assert "not determined" in out

    def test_determined_exits_0(self, capsys):
        code, out, _ = run(capsys, "check-determinacy",
                           fixture_path("xz_yy.json"))
        assert code == cli.EXIT_OK
        assert out.strip() == "determined"

    def test_json_names_a_label_neither_player_wins(self, capsys):
        """``--json`` on a structure that is not determined adds the
        outcomes of a label that no row enforces and no column keeps out;
        a determined one gets no witness."""
        path = fixture_path("xy_yx.json")
        code, out, _ = run(capsys, "--json", "check-determinacy", path)
        report = json.loads(out)
        assert (code, report["determined"]) == (cli.EXIT_FAIL, False)
        st = jsonio.load(path)
        names = [st.outcomes.label(o) for o in range(st.outcomes.size)]
        label = sum(1 << names.index(name) for name in report["witness"])
        full = (1 << st.outcomes.size) - 1
        assert brute_enforcing_strategy(st, 1, label) is None
        assert brute_enforcing_strategy(st, 2, label ^ full) is None
        code, out, _ = run(capsys, "--json", "check-determinacy",
                           fixture_path("xz_yy.json"))
        assert code == cli.EXIT_OK and "witness" not in json.loads(out)

    def test_json_witness_is_the_deciding_search(self, capsys, monkeypatch):
        """``--json`` takes its witness from the search that decided: one
        ``_undetermined_label`` run per input, determined or not."""
        from eqtransfer import normal_form
        search, calls = normal_form._undetermined_label, []
        monkeypatch.setattr(normal_form, "_undetermined_label",
                            lambda *masks: calls.append(1) or search(*masks))
        for name, code in (("xy_yx.json", cli.EXIT_FAIL),
                           ("xz_yy.json", cli.EXIT_OK)):
            calls.clear()
            assert run(capsys, "--json", "check-determinacy",
                       fixture_path(name))[0] == code
            assert calls == [1], name

    def test_trees_agree_with_their_normal_forms(self, capsys, tmp_path):
        """A tree is answered without its normal form, bare or with
        preferences, as the table check answers the normal form."""
        rng = random.Random(27001)
        path = tmp_path / "tree.json"
        for i in range(40):
            tree = random_tree(rng, rng.randint(1, 5))
            want = et.is_determined(et.to_normal_form(tree))
            prefs = et.PreferenceProfile(tuple(
                random_acyclic_preference(rng, tree.outcomes.size)
                for _ in range(2)))
            jsonio.dump(tree if i % 2 else (tree, prefs), path)
            code, out, _ = run(capsys, "check-determinacy", str(path))
            assert (code, out) == ((cli.EXIT_OK, "determined\n") if want
                                   else (cli.EXIT_FAIL, "not determined\n"))

    @pytest.mark.parametrize("cap", [[], ["--cap", "1"]])
    def test_wide_tree_needs_no_normal_form(self, capsys, tmp_path, cap,
                                            monkeypatch):
        """4,194,304 profiles, over the conversion cap, and 2 outcomes,
        over a cap of 1: neither bounds a tree, and ``verify-ne`` checks
        a profile of it on the tree."""
        path = tmp_path / "caterpillar.json"
        path.write_text(json.dumps(wide_caterpillar(21)))
        monkeypatch.setattr(cli, "to_normal_form", None)
        monkeypatch.setattr(extensive, "to_normal_form", None)
        code, out, err = run(capsys, "check-determinacy", str(path), *cap)
        assert (code, out, err) == (cli.EXIT_OK, "determined\n", "")
        code, out, err = run(capsys, "verify-ne", "--profile", "0,0",
                             str(path))
        assert (code, out, err) == (
            cli.EXIT_FAIL, "(0, 0) is not an equilibrium\n", "")


class TestPlayerCount:
    """``transfer`` and ``check-determinacy`` need two players; any other
    count is input error, not a traceback, while ``solve`` and
    ``verify-ne`` take n players."""

    @staticmethod
    def game(tmp_path, counts: list[int]) -> str:
        cells = 1
        for c in counts:
            cells *= c
        prefs = [{"pairs": [[0, 1]]} for _ in counts]
        path = tmp_path / f"players_{len(counts)}.json"
        path.write_text(json.dumps({
            "format": 1, "players": len(counts), "strategies": counts,
            "outcomes": 2, "v": [i % 2 for i in range(cells)],
            "preferences": prefs}))
        return str(path)

    @pytest.mark.parametrize("counts", [[2], [2, 2, 2]])
    @pytest.mark.parametrize("command, what", [
        ("transfer", "a two-player game"),
        ("check-determinacy", "a two-player structure")])
    def test_refused_with_exit_2(self, capsys, tmp_path, counts, command,
                                 what):
        path = self.game(tmp_path, counts)
        code, out, err = run(capsys, command, path)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err == (f"error: {command} needs {what}, "
                       f"got {len(counts)} players\n")
        code, out, _ = run(capsys, "--json", command, path)
        assert code == cli.EXIT_INPUT
        assert json.loads(out)["error"] == "SchemaError"

    @pytest.mark.parametrize("counts", [[2], [2, 2, 2]])
    def test_solve_takes_n_players(self, capsys, tmp_path, counts):
        path = self.game(tmp_path, counts)
        code, _, err = run(capsys, "solve", path)
        assert (code, err) == (cli.EXIT_OK, "")
        profile = ",".join("0" * len(counts))
        code, _, err = run(capsys, "verify-ne", path, "--profile", profile)
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL) and err == ""


class TestTransfer:
    def test_tree_oracle(self, capsys):
        code, out, _ = run(capsys, "transfer",
                           fixture_path("intro_payoff_tree.json"))
        assert code == cli.EXIT_OK
        assert "Nash equilibrium" in out
        assert "winner_calls" in out

    def test_deep_tree_prints_per_node_choices(self, capsys, tmp_path):
        path = tmp_path / "caterpillar.json"
        path.write_text(caterpillar_text(300))
        code, out, _ = run(capsys, "--json", "transfer", str(path))
        assert code == cli.EXIT_OK
        report = json.loads(out)
        for player, strategy in enumerate(report["strategies"], 1):
            assert strategy["type"] == "tree"
            assert strategy["player"] == player
            assert len(strategy["choices"]) == 150

    def test_brute_oracle_json(self, capsys, tmp_path):
        """A tree runs through backward induction and its normal form,
        written out as a game, through the table; both find the same
        outcome with the same calls."""
        tree, prefs = jsonio.load(fixture_path("intro_payoff_tree.json"))
        path = tmp_path / "normal_form.json"
        jsonio.dump(et.NormalFormGame(et.to_normal_form(tree), prefs), path)
        reports = []
        for source in (fixture_path("intro_payoff_tree.json"), str(path)):
            code, out, _ = run(capsys, "--json", "transfer", source)
            assert code == cli.EXIT_OK
            reports.append(json.loads(out))
        assert [r["oracle"] for r in reports] == ["tree", "brute"]
        assert reports[1]["strategies"][0]["type"] == "index"
        fields = ("outcome", "outcome_label", "winner_calls", "strategy_calls")
        assert ([reports[0][f] for f in fields]
                == [reports[1][f] for f in fields])
        assert reports[1]["winner_calls"] <= 3
        assert reports[1]["strategy_calls"] <= 2

    @pytest.mark.parametrize("name, oracle", [
        ("intro_payoff_tree.json", "tree"), ("intro_winlose_tree.json", "tree"),
        ("priority_game.json", "parity"), ("muller_game.json", "muller")])
    def test_backend_follows_input_kind(self, capsys, name, oracle):
        assert transfer_oracle(capsys, fixture_path(name)) == oracle

    def test_transfer_has_no_oracle_option(self, capsys):
        code, out, _ = run(capsys, "transfer", "--help")
        assert code == cli.EXIT_OK
        assert "--oracle" not in out
        code, _, _ = run(capsys, "transfer", "--oracle", "brute",
                         fixture_path("intro_payoff_tree.json"))
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("name", ["intro_payoff_tree.json",
                                      "intro_payoff_tree_flat.json",
                                      "priority_game.json",
                                      "muller_game.json"])
    def test_text_output_builds_no_strategy_objects(self, capsys,
                                                    monkeypatch, name):
        """Only ``--json`` prints the strategies, so only it builds them."""
        def refuse(*_):
            raise AssertionError("text output built a strategy object")

        code, text, _ = run(capsys, "transfer", fixture_path(name))
        code_json, out, _ = run(capsys, "--json", "transfer",
                                fixture_path(name))
        monkeypatch.setattr(cli, "_oracle_strategy_obj", refuse)
        assert run(capsys, "transfer", fixture_path(name)) == (code, text, "")
        assert (code, code_json) == (cli.EXIT_OK, cli.EXIT_OK)
        assert len(json.loads(out)["strategies"]) == 2

    @pytest.mark.parametrize("name", ["intro_payoff_tree.json",
                                      "intro_winlose_tree.json",
                                      "priority_game.json",
                                      "muller_game.json"])
    def test_json_prints_the_probe_log(self, capsys, name):
        """``--json`` prints the transfer's log as outcome labels: probe k
        tries to drop the k-th outcome of player 1's linear extension, and
        ``enforced`` and ``drop`` are the two strategy queries' sets."""
        game = jsonio.load(fixture_path(name))
        prefs = game[1] if isinstance(game, tuple) else game.preferences
        result, label = et.equilibrium(game), prefs.outcomes.label
        code, out, _ = run(capsys, "--json", "transfer", fixture_path(name))
        report = json.loads(out)
        assert code == cli.EXIT_OK
        assert report["probes"] == [
            {"without": label(o), "winner": w} for o, (_, w) in
            zip(et.linear_extension(prefs[0]), result.probes, strict=True)]
        for key in ("enforced", "drop"):
            mask = getattr(result, key)
            assert report[key] == [label(o) for o in range(
                prefs.outcomes.size) if mask >> o & 1]
        assert label(result.outcome) in report["enforced"]

    def test_large_tree_needs_no_normal_form(self, capsys, tmp_path):
        """4,194,304 profiles, over the conversion cap: transfer runs on
        the tree, and solve refuses to build its normal form."""
        path = tmp_path / "caterpillar.json"
        path.write_text(json.dumps(wide_caterpillar(21)))
        code, out, _ = run(capsys, "--json", "transfer", str(path))
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["oracle"] == "tree"
        assert report["winner_calls"] <= 2
        code, _, err = run(capsys, "solve", str(path))
        assert code == cli.EXIT_INPUT
        assert "4194304 strategy profiles exceed cap 1000000" in err

    def test_parity_oracle(self, capsys):
        code, out, _ = run(capsys, "--json", "transfer",
                           fixture_path("priority_game.json"))
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["strategies"][0]["type"] == "positional"

    def test_muller_oracle(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--json", "transfer",
                           fixture_path("muller_game.json"))
        assert code == cli.EXIT_OK
        assert json.loads(out)["oracle"] == "muller"
        path = tmp_path / "memory.json"
        path.write_text(json.dumps(MEMORY_MULLER))
        code, out, _ = run(capsys, "--json", "transfer", str(path))
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["outcome"] == 1
        assert report["strategies"][0]["type"] == "finite-memory"

    def test_not_determined_input(self, capsys, tmp_path):
        # matching pennies with opposed preferences over the two outcomes
        path = tmp_path / "mp.json"
        path.write_text(json.dumps(MATCHING_PENNIES))
        code, _, err = run(capsys, "transfer", str(path))
        assert code == cli.EXIT_FAIL
        assert "not determined" in err

    @pytest.mark.parametrize("swap", [False, True])
    def test_not_determined_json_report(self, capsys, tmp_path, swap):
        """With the preferences one way round the profile misses its
        promised outcome; the other way round a deviation is found, and the
        report names its deviator and outcome."""
        doc = dict(MATCHING_PENNIES)
        if swap:
            doc["preferences"] = doc["preferences"][::-1]
        path = tmp_path / "mp.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "--json", "transfer", str(path))
        assert code == cli.EXIT_FAIL
        report = json.loads(out)
        assert report["command"] == "transfer"
        assert report["error"] == "NotDeterminedError"
        if swap:
            assert (report["deviator"], report["outcome"]) == (1, 1)
            assert "player 1" in report["message"]
        else:
            assert "deviator" not in report and "outcome" not in report

    def test_cyclic_priority_preference_one_error(self, capsys, tmp_path):
        """The library and the command report a cyclic preference alike;
        the library once raised UnboundedHeightError, a separate class."""
        doc = json.loads(Path(fixture_path("priority_game.json")).read_text())
        doc["preferences"][0]["pairs"] = [[0, 1], [1, 0]]
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(et.CyclicPreferenceError):
            et.multi_outcome_ne(jsonio.load(str(path)))
        code, out, _ = run(capsys, "--json", "transfer", str(path))
        assert code == cli.EXIT_FAIL
        assert json.loads(out)["error"] == "CyclicPreferenceError"

    def test_malformed_input_json_report(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out, _ = run(capsys, "--json", "transfer", str(path))
        assert code == cli.EXIT_INPUT
        report = json.loads(out)
        assert report["command"] == "transfer"
        assert report["error"] == "SchemaError"
        assert "malformed JSON" in report["message"]
        assert "deviator" not in report and "outcome" not in report


class TestArenaCommands:
    def test_solve_parity(self, capsys):
        code, out, _ = run(capsys, "--json", "solve-parity",
                           fixture_path("arena_small.json"))
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["winner"] in (1, 2)
        assert report["strategy"]["type"] == "positional"

    def test_solve_muller(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--json", "solve-muller",
                           fixture_path("arena_small.json"))
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["winner"] in (1, 2)
        path = tmp_path / "memory.json"
        keys = ("format", "vertices", "owned", "edges", "colors", "start")
        path.write_text(json.dumps(
            {**{key: MEMORY_MULLER[key] for key in keys},
             "win_sets": [[0, 1, 2]]}))
        code, out, _ = run(capsys, "--json", "solve-muller", str(path))
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["winner"] == 1
        assert report["strategy"]["type"] == "finite-memory"

    def test_strategies_serialize(self, capsys, tmp_path):
        """Machines rebuilt from the printed graphs play as the ones the
        library returned."""
        memory = tmp_path / "memory.json"
        memory.write_text(json.dumps(MEMORY_MULLER))
        for path in (fixture_path("muller_game.json"), str(memory)):
            code, out, _ = run(capsys, "--json", "transfer", path)
            assert code == cli.EXIT_OK
            game = jsonio.load(path)
            s1, s2 = (machine_from_obj(obj, game.arena)
                      for obj in json.loads(out)["strategies"])
            eq = et.multi_outcome_ne(game)
            assert (et.play_of(game.arena, game.start, s1, s2)
                    == et.play_of(game.arena, game.start, *eq.profile))

        code, out, _ = run(capsys, "--json", "solve-muller",
                           fixture_path("arena_small.json"))
        assert code == cli.EXIT_OK
        arena, start, win_sets = jsonio.load(fixture_path("arena_small.json"))
        printed = machine_from_obj(json.loads(out)["strategy"], arena)
        _, machine = et.solve_muller(arena, start, win_sets)
        assert printed.player == machine.player == 1
        for other in all_positional_strategies(arena, 2):
            assert (et.play_of(arena, start, printed, other)
                    == et.play_of(arena, start, machine, other))

    @pytest.mark.parametrize("win_sets", [[1], "12", [[1, "2"]], None])
    def test_solve_muller_malformed_win_sets(self, capsys, tmp_path, win_sets):
        doc = json.loads(Path(fixture_path("arena_small.json")).read_text())
        doc["win_sets"] = win_sets
        path = tmp_path / "arena.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve-muller", str(path))
        assert code == cli.EXIT_INPUT
        assert "win_sets" in err
        assert "Traceback" not in err

    def test_dumped_plain_arena_solves_alike(self, capsys, tmp_path):
        """Once dumped with start 0 and without win_sets, which
        solve-muller then refused."""
        path = tmp_path / "arena.json"
        jsonio.dump(jsonio.load(fixture_path("arena_small.json")), str(path))
        reports = [run(capsys, "--json", command, where)
                   for where in (fixture_path("arena_small.json"), str(path))
                   for command in ("solve-muller", "solve-parity")]
        assert reports[:2] == reports[2:]
        assert json.loads(reports[0][1])["lines"][0] == \
            "player 1 wins from vertex 1"

    @pytest.mark.parametrize("command", ["solve-parity", "solve-muller"])
    def test_win_sets_checked_on_load(self, capsys, tmp_path, command):
        """Once only solve-muller checked win_sets; solve-parity exited 0."""
        doc = json.loads(Path(fixture_path("arena_small.json")).read_text())
        doc["win_sets"] = [[1, "2"]]
        path = tmp_path / "arena.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, str(path))
        assert code == cli.EXIT_INPUT
        assert "win_sets must be a list of colour lists" in err

    def test_solve_muller_needs_win_sets(self, capsys, tmp_path):
        doc = json.loads(Path(fixture_path("arena_small.json")).read_text())
        del doc["win_sets"]
        path = tmp_path / "arena.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "solve-parity", str(path))[0] == cli.EXIT_OK
        code, _, err = run(capsys, "solve-muller", str(path))
        assert code == cli.EXIT_INPUT
        assert "needs win_sets" in err

    def test_muller_colour_cap(self, capsys, tmp_path):
        """Once still running when ``timeout 10`` killed it: 30 colours
        would make each split list 2^30 subsets."""
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(colour_ring(30)))
        start = time.perf_counter()
        code, _, err = run(capsys, "solve-muller", str(path))
        assert time.perf_counter() - start < 1
        assert code == cli.EXIT_INPUT
        assert "more than 20 colours reachable" in err

    def test_transfer_shares_colour_cap(self, capsys, monkeypatch):
        """The Muller oracle runs the same recursion, so the same cap."""
        monkeypatch.setattr(graph_games, "MAX_MULLER_COLOURS", 1)
        code, _, err = run(capsys, "transfer",
                           fixture_path("muller_game.json"))
        assert code == cli.EXIT_INPUT
        assert "more than 1 colours reachable" in err


    @pytest.mark.parametrize("outcome", [99, "x", -1])
    @pytest.mark.parametrize("fixture, oracle", [
        ("priority_game.json", "parity"), ("muller_game.json", "muller")])
    def test_transfer_rejects_bad_mapped_outcome(self, capsys, tmp_path,
                                                 fixture, oracle, outcome):
        """The fixture runs through its backend; the mutated copy is
        refused."""
        assert transfer_oracle(capsys, fixture_path(fixture)) == oracle
        doc = json.loads(Path(fixture_path(fixture)).read_text())
        doc["r"][0][1] = outcome
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "transfer", str(path))
        assert code == cli.EXIT_INPUT
        assert f"mapped outcome {outcome!r} is not an outcome index" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fixture, oracle, entry, message", [
        ("priority_game.json", "parity", [0, 2],
         "r maps colour 0 more than once"),
        ("priority_game.json", "parity", [[0], 0],
         "priority r entry must be [color, outcome], got [[0], 0]"),
        ("muller_game.json", "muller", [[1, 0], 0],
         "r maps colour set [1, 0] more than once"),
        ("muller_game.json", "muller", [[[0]], 0],
         "Muller r entry must be [[colors], outcome], got [[[0]], 0]")])
    def test_transfer_rejects_bad_map_key(self, capsys, tmp_path, fixture,
                                          oracle, entry, message):
        assert transfer_oracle(capsys, fixture_path(fixture)) == oracle
        doc = json.loads(Path(fixture_path(fixture)).read_text())
        doc["r"].append(entry)
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "transfer", str(path))
        assert code == cli.EXIT_INPUT
        assert message in err
        assert "Traceback" not in err


class TestVerifyNe:
    def test_equilibrium_profile(self, capsys):
        code, out, _ = run(capsys, "verify-ne", "--profile", "0,3",
                           fixture_path("intro_winlose_tree.json"))
        assert code == cli.EXIT_OK
        assert "an equilibrium" in out

    def test_non_equilibrium_profile(self, capsys):
        code, out, _ = run(capsys, "verify-ne", "--profile", "1,0",
                           fixture_path("intro_winlose_tree.json"))
        assert code == cli.EXIT_FAIL
        assert "not an equilibrium" in out

    def test_bad_profile_string(self, capsys):
        code, _, err = run(capsys, "verify-ne", "--profile", "a,b",
                           fixture_path("intro_winlose_tree.json"))
        assert code == cli.EXIT_INPUT

    def test_out_of_range_profile(self, capsys):
        code, _, err = run(capsys, "verify-ne", "--profile", "0,9",
                           fixture_path("intro_winlose_tree.json"))
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("profile", ["0,9", "-1,0", "0", "0,0,0"])
    def test_profile_checked_by_the_library(self, capsys, profile):
        code, out, err = run(capsys, "--json", "verify-ne",
                             f"--profile={profile}",
                             fixture_path("intro_winlose_tree.json"))
        assert code == cli.EXIT_INPUT
        assert json.loads(out)["error"] == "BadIndexError"
        assert "does not fit strategy counts (2, 4)" in err
        assert "Traceback" not in err

    def test_tree_verdicts_are_the_normal_form_ones(self, capsys, tmp_path):
        """Checked on the tree, every profile of 200 seeded trees gets the
        verdict that ``is_nash_equilibrium`` gives on the normal form."""
        rng, path, trees = random.Random(39001), tmp_path / "tree.json", 0
        while trees < 200:
            tree = random_tree(rng, rng.randint(1, 4))
            st = et.to_normal_form(tree)
            if st.profile_count > 48:
                continue
            trees += 1
            prefs = et.PreferenceProfile(tuple(
                random_acyclic_preference(rng, tree.outcomes.size)
                for _ in range(2)))
            jsonio.dump((tree, prefs), path)
            g = et.NormalFormGame(st, prefs)
            for profile in itertools.product(*map(range,
                                                  st.strategy_counts)):
                ok = et.is_nash_equilibrium(g, profile)
                code, out, err = run(capsys, "verify-ne", "--profile",
                                     "%d,%d" % profile, str(path))
                assert (code, out, err) == (
                    cli.EXIT_OK if ok else cli.EXIT_FAIL,
                    f"{profile} is {'an' if ok else 'not an'} "
                    "equilibrium\n", "")

    def test_cap_bounds_tree_conversion(self, capsys):
        """Only ``solve`` converts a tree; ``verify-ne`` takes no cap."""
        code, _, err = run(capsys, "solve", "--cap", "1",
                           fixture_path("intro_winlose_tree.json"))
        assert code == cli.EXIT_INPUT
        assert "8 strategy profiles exceed cap 1" in err


class TestCorpus:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "corpus", "list")
        assert code == cli.EXIT_OK
        assert "remark_5_3" in out and "prop_5_6" in out

    def test_build(self, capsys):
        code, out, _ = run(capsys, "--json", "corpus", "build", "prop_5_4",
                           "--n", "2")
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["executable"] is True
        assert "no-ne" in report["claims"]

    def test_verify_rotating_game_counts_instantiations(self, capsys):
        code, out, _ = run(capsys, "corpus", "verify", "remark_5_3")
        assert code == cli.EXIT_OK
        assert "512/512" in out
        assert "FAILED" not in out

    def test_verify_missing_name(self, capsys):
        code, _, err = run(capsys, "corpus", "verify")
        assert code == cli.EXIT_INPUT

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, "corpus", "build", "nonsense")
        assert code == cli.EXIT_INPUT
        assert "error:" in err

    def run_promptly(self, capsys, *argv):
        """Exit code and stderr of ``corpus verify prop_5_4 *argv``, which
        must return within a few seconds and print no traceback."""
        start = time.perf_counter()
        code, _, err = run(capsys, "corpus", "verify", "prop_5_4", *argv)
        assert time.perf_counter() - start < 5
        assert "Traceback" not in err
        return code, err

    def test_verify_n_below_2(self, capsys):
        """Once a ValueError traceback from the ladder constructor."""
        code, err = self.run_promptly(capsys, "--n", "1")
        assert code == cli.EXIT_INPUT
        assert "n must be at least 2, got 1" in err

    def test_verify_n_above_cap(self, capsys):
        """101**3 profiles exceed the profile cap; once the table was
        allocated without a bound."""
        code, err = self.run_promptly(capsys, "--n", "101")
        assert code == cli.EXIT_INPUT
        assert "above the cap of 1000000" in err

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_verify_samples_below_1(self, capsys, samples):
        """Once a sampled claim confirmed on no samples (0/0)."""
        code, err = self.run_promptly(capsys, "--samples", samples)
        assert code == cli.EXIT_INPUT
        assert f"samples must be at least 1, got {samples}" in err

    def test_verify_samples_above_cap(self, capsys):
        """Once about an hour of sampling before any report."""
        start = time.perf_counter()
        code, err = self.run_promptly(capsys, "--samples", "100000000")
        assert time.perf_counter() - start < 1
        assert code == cli.EXIT_INPUT
        assert "exceed the cap of 100000" in err

    @pytest.mark.parametrize("argv", [
        ["list", "--n", "7"], ["list", "prop_5_4"],
        ["build", "prop_5_4", "--samples", "0"],
        ["build", "prop_5_4", "--samples", "100000000"], ["build"]])
    def test_flag_the_action_cannot_use(self, capsys, argv):
        """Once checked on actions that ignore it, or ignored: argparse
        now refuses it."""
        start = time.perf_counter()
        code, out, err = run(capsys, "corpus", *argv)
        assert time.perf_counter() - start < 1
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("action", ["build", "verify"])
    def test_n_for_entry_without_size(self, capsys, action):
        """Once ignored: the fixed entry's reports came out with exit 0."""
        code, _, err = run(capsys, "corpus", action, "remark_5_3", "--n", "5")
        assert code == cli.EXIT_INPUT
        assert "takes no size n" in err
        assert "Traceback" not in err

    def test_verify_seed(self, capsys, monkeypatch):
        """``--seed`` reaches the sampled claims: the report is the
        library's for that seed."""
        library, seeds = et.corpus.verify, []
        want = [{"claim": r.claim, "passed": r.passed,
                 "exhaustive": r.exhaustive, "detail": r.detail}
                for r in library(et.build("prop_5_4"), seed=3)]
        monkeypatch.setattr(et.corpus, "verify", lambda entry, seed=0, **kw:
                            seeds.append(seed) or library(entry, seed, **kw))
        code, out, _ = run(capsys, "--json", "corpus", "verify", "prop_5_4",
                           "--seed", "3")
        assert (code, seeds) == (cli.EXIT_OK, [3])
        assert json.loads(out)["claims"] == want


class TestOptions:
    """Each option can be set on exactly the commands that read it, 16
    (command, option) pairs with ``--json``: anywhere else, before the
    command included, it is a usage error."""

    OPTIONS = {"--cap": "100", "--profile": "0,0", "--n": "3",
               "--samples": "5", "--seed": "3"}
    # every command path, with an input it takes, and the options it reads
    PATHS = [
        (["solve", "intro_payoff_tree.json"], {"--cap"}),
        (["check-determinacy", "xz_yy.json"], {"--cap"}),
        (["transfer", "intro_payoff_tree.json"], set()),
        (["solve-parity", "arena_small.json"], set()),
        (["solve-muller", "arena_small.json"], set()),
        (["verify-ne", "intro_payoff_tree.json", "--profile", "0,0"],
         {"--profile"}),
        (["corpus", "list"], set()),
        (["corpus", "build", "prop_5_4"], {"--n"}),
        (["corpus", "verify", "prop_5_4"], {"--n", "--samples", "--seed"})]

    @pytest.mark.parametrize("argv, read", PATHS,
                             ids=[" ".join(a[:2]) for a, _ in PATHS])
    def test_option_only_where_read(self, capsys, argv, read):
        argv = [fixture_path(a) if a.endswith(".json") else a for a in argv]
        assert run(capsys, *argv)[0] == cli.EXIT_OK
        for option, value in self.OPTIONS.items():
            for placed in ([*argv, option, value], [option, value, *argv]):
                code, out, err = run(capsys, *placed)
                if placed[0] != option and option in read:
                    assert code == cli.EXIT_OK, placed
                    continue
                assert (code, out) == (cli.EXIT_INPUT, ""), placed
                assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, commands", [
        (["--cap", "31", "check-determinacy", "xz_yy.json"],
         "solve, check-determinacy"),
        (["--json", "--profile", "0,0", "verify-ne",
          "intro_payoff_tree.json"], "verify-ne"),
        (["--n", "3", "corpus", "build", "prop_5_4"],
         "corpus build, corpus verify"),
        (["--seed", "5", "corpus", "verify", "prop_5_4"], "corpus verify"),
        (["corpus", "--seed", "3", "verify", "prop_5_4"], "corpus verify"),
        (["corpus", "--n", "3", "build", "prop_5_4"],
         "corpus build, corpus verify"),
        (["corpus", "--cap", "3", "list"],
         "solve, check-determinacy")])
    def test_option_before_command_names_its_commands(self, capsys, argv,
                                                      commands):
        """Once "argument command: invalid choice: '31'", naming the value:
        an option written before the command, or before a corpus action,
        is still a usage error, and its message says where the option
        goes."""
        argv = [fixture_path(a) if a.endswith(".json") else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (cli.EXIT_INPUT, "")
        option = next(a for a in argv if a.startswith("--") and a != "--json")
        assert err.endswith(f"error: {option} goes after the command: "
                            f"{commands}\n")


class TestErrorPaths:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        """Runs in one process share one parser, and a usage error leaves
        it as it was: the same error reads the same after a good run."""
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            first = run(capsys, "solve")
            good = run(capsys, "solve", fixture_path("intro_payoff_tree.json"))
            again = run(capsys, "solve")
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert first == again and first[0] == cli.EXIT_INPUT
        assert "usage: eqtransfer solve" in first[2]
        assert good[0] == cli.EXIT_OK

    @pytest.mark.parametrize("module, name", [(jsonio, "from_obj"),
                                              (graph_games, "_zielonka")],
                             ids=["load", "solve"])
    def test_out_of_memory_is_refused(self, capsys, monkeypatch, module,
                                      name):
        """A MemoryError while loading, building or solving is exit 2 and
        a TooLargeError report, not a traceback."""
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(module, name, out_of_memory)
        code, out, err = run(capsys, "--json", "transfer",
                             fixture_path("priority_game.json"))
        assert code == cli.EXIT_INPUT
        assert err == "error: input too large for available memory\n"
        assert json.loads(out)["error"] == "TooLargeError"

    @pytest.mark.parametrize("name, got", [
        ("priority_game", "a priority game"),
        ("muller_game", "a Muller game"),
        ("arena_small",
         "a plain arena, which solve-parity and solve-muller take")])
    @pytest.mark.parametrize("command", [
        "solve", "verify-ne", "check-determinacy", "transfer"])
    def test_arena_input_names_command_and_kind(self, capsys, name, got,
                                                command):
        """An arena input refused by a command is named, with the command
        and what it needs; ``transfer`` takes the two arena games."""
        argv = [command, fixture_path(f"{name}.json")]
        if command == "verify-ne":
            argv += ["--profile", "0,0"]
        code, out, err = run(capsys, *argv)
        if command == "transfer" and name != "arena_small":
            assert (code, err) == (cli.EXIT_OK, "")
            return
        needs = ("a game with preferences" if command == "transfer"
                 else "a normal-form game or a game tree")
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == f"error: {command} needs {needs}, got {got}\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/game.json")
        assert code == cli.EXIT_INPUT
        assert "cannot read" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "solve", str(path))
        assert code == cli.EXIT_INPUT
        assert "malformed JSON" in err

    def run_mutated(self, capsys, tmp_path, fixture, mutate):
        """Exit code and stderr of ``transfer`` on a mutated fixture, after
        checking that its JSON report names a SchemaError."""
        doc = json.loads(Path(fixture_path(fixture)).read_text())
        mutate(doc)
        path = tmp_path / fixture
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "--json", "transfer", str(path))
        assert json.loads(out)["error"] == "SchemaError"
        code, _, err = run(capsys, "transfer", str(path))
        assert "Traceback" not in err
        return code, err

    def test_list_valued_tree_owner(self, capsys, tmp_path):
        code, err = self.run_mutated(
            capsys, tmp_path, "intro_payoff_tree.json",
            lambda doc: doc["tree"].update(owner=["a"]))
        assert code == cli.EXIT_INPUT
        assert "node owner must be 'a' or 'b', got ['a']" in err

    def test_zero_outcomes(self, capsys, tmp_path):
        code, err = self.run_mutated(
            capsys, tmp_path, "xz_yy.json",
            lambda doc: doc.update(outcomes=0))
        assert code == cli.EXIT_INPUT
        assert "outcome set must be non-empty" in err

    def test_huge_table_entry(self, capsys, tmp_path):
        code, err = self.run_mutated(
            capsys, tmp_path, "xz_yy.json",
            lambda doc: doc["v"].__setitem__(0, 10 ** 30))
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("fixture, command, where, message", [
        ("arena_small.json", "solve-parity", ["start"], "start vertex"),
        ("arena_small.json", "solve-parity", ["vertices"], "vertex count"),
        ("arena_small.json", "solve-parity", ["owned", 0], "owned"),
        ("arena_small.json", "solve-parity", ["colors", 1], "colors"),
        ("arena_small.json", "solve-parity", ["edges", 0, 1], "edges"),
        ("arena_small.json", "solve-parity", ["format"], "format"),
        ("arena_small.json", "solve-muller", ["win_sets", 0, 0], "win_sets"),
        ("priority_game.json", "transfer", ["r", 1, 0], "r entry"),
        ("priority_game.json", "transfer", ["r", 1, 1], "mapped outcome"),
        ("muller_game.json", "transfer", ["r", 1, 0, 0], "r entry"),
        ("muller_game.json", "transfer", ["r", 1, 1], "mapped outcome"),
        ("priority_game.json", "transfer",
         ["preferences", 0, "pairs", 0, 1], "preference pair"),
        ("xz_yy.json", "check-determinacy", ["v", 2], "table entries"),
        ("xz_yy.json", "check-determinacy", ["strategies", 0],
         "strategy counts"),
        ("intro_payoff_tree.json", "transfer", ["tree", "children", 1, "leaf"],
         "leaf"),
        ("intro_payoff_tree.json", "transfer", ["outcomes"], "outcomes"),
    ])
    def test_boolean_is_not_an_integer(self, capsys, tmp_path, fixture,
                                       command, where, message, value):
        """JSON true and false are refused wherever an integer belongs,
        with a SchemaError that names the field."""
        doc = json.loads(Path(fixture_path(fixture)).read_text())
        inner = doc
        for key in where[:-1]:
            inner = inner[key]
        inner[where[-1]] = value
        path = tmp_path / fixture
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "--json", command, str(path))
        assert (code, json.loads(out)["error"]) == (cli.EXIT_INPUT,
                                                     "SchemaError")
        code, _, err = run(capsys, command, str(path))
        assert code == cli.EXIT_INPUT
        assert message in err
        assert "Traceback" not in err

    def run_outcome_count(self, capsys, tmp_path, command, count):
        """Exit code and stderr of ``command`` on a 2-leaf tree game with
        ``count`` (a JSON literal) outcomes, after checking its JSON
        report."""
        doc = {"format": 1, "outcomes": None,
               "tree": {"owner": "a", "children": [{"leaf": 0}, {"leaf": 1}]},
               "preferences": [{"pairs": []}, {"pairs": []}]}
        path = tmp_path / "outcomes.json"
        path.write_text(json.dumps(doc).replace("null", count))
        code, out, _ = run(capsys, "--json", command, str(path))
        assert json.loads(out)["error"] == "TooLargeError"
        code, _, err = run(capsys, command, str(path))
        assert "Traceback" not in err
        return code, err

    @pytest.mark.parametrize("count", ["1000000", "1" + "0" * 30])
    def test_solve_huge_outcome_count(self, capsys, tmp_path, count):
        """Once a MemoryError while building the outcome masks of ``solve``."""
        code, err = self.run_outcome_count(capsys, tmp_path, "solve", count)
        assert code == cli.EXIT_INPUT
        assert f"above the cap of {errors.MAX_OUTCOMES}" in err

    @pytest.mark.parametrize("count", ["1000000", "1" + "0" * 30])
    def test_transfer_huge_outcome_count(self, capsys, tmp_path, count):
        """Once an OverflowError in the preference check (10**30), or one
        probe per outcome without bound (10**6)."""
        code, err = self.run_outcome_count(capsys, tmp_path, "transfer", count)
        assert code == cli.EXIT_INPUT
        assert f"above the cap of {errors.MAX_OUTCOMES}" in err

    def test_integer_literal_too_long(self, capsys, tmp_path):
        code, err = self.run_outcome_count(capsys, tmp_path, "transfer",
                                           "1" + "0" * 5000)
        assert code == cli.EXIT_INPUT
        assert "JSON number longer than the parser's limit" in err

    @pytest.mark.parametrize("argv, err", [
        (["solve", fixture_path("intro_payoff_tree.json")], ""),
        (["--json", "transfer", "/nonexistent/game.json"],
         "error: cannot read /nonexistent/game.json"),
    ])
    def test_closed_stdout_exits_quietly(self, capsys, monkeypatch, argv, err):
        """A reader that stops early (``| head``) ends the run with exit 1,
        a report or an error report alike, and no traceback."""
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli.main(argv) == cli.EXIT_FAIL
        lines = capsys.readouterr().err.splitlines()
        assert [line[:len(err)] for line in lines] == ([err] if err else [])

    def test_bad_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == cli.EXIT_INPUT

    def test_help_exits_0(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == cli.EXIT_OK


class TestFixtures:
    COMMANDS = (["solve"], ["check-determinacy"], ["transfer"],
                ["solve-parity"], ["solve-muller"],
                ["verify-ne", "--profile", "0,0"])

    @pytest.mark.parametrize("name", sorted(p.name for p in
                                            FIXTURES.glob("*.json")))
    def test_every_command_exits_cleanly(self, capsys, name):
        """No subcommand raises on any fixture; under ``--json`` each one
        prints one JSON report, whatever its exit code."""
        for command in self.COMMANDS:
            argv = [command[0], fixture_path(name), *command[1:]]
            code, out, err = run(capsys, *argv)
            assert code in (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_INPUT)
            code_json, out, _ = run(capsys, "--json", *argv)
            assert code_json == code
            assert isinstance(json.loads(out), dict), argv


    def test_flat_fixture_is_the_nested_one(self, capsys):
        """The same game in the two tree forms: equal arrays and
        preferences, and the same transfer report."""
        loaded, reports = [], []
        for name in ("intro_payoff_tree.json", "intro_payoff_tree_flat.json"):
            tree, prefs = jsonio.load(fixture_path(name))
            loaded.append((tree.owners, tree.children, tree.root_code,
                           tree.outcomes, prefs))
            reports.append(run(capsys, "--json", "transfer",
                               fixture_path(name)))
        assert loaded[0] == loaded[1]
        assert reports[0] == reports[1]
        assert reports[0][0] == cli.EXIT_OK


def readme_commands() -> list[list[str]]:
    """The ``eqtransfer`` lines of the README's "Command line" section, as
    argument lists."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line)[1:] for line in section.splitlines()
            if line.startswith("eqtransfer ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands(capsys, monkeypatch, argv):
    monkeypatch.chdir(Path(__file__).parent.parent)
    code, _, _ = run(capsys, *argv)
    assert code in (cli.EXIT_OK, cli.EXIT_FAIL)
