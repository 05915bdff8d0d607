"""JSON serialization: round-trips for every fixture and error reporting."""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import eqtransfer as et
from eqtransfer import cli, errors, jsonio
from conftest import FIXTURES, fixture_path
from limits import caterpillar_game, caterpillar_text
from reference_extensive import (caterpillar_pair, index_tree,
                                 random_tree_pair, reference_from_obj,
                                 tree_document)
from test_fuzz import VALUES, slots

ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json"))
DOCS = {name: json.loads((FIXTURES / name).read_text())
        for name in ALL_FIXTURES}
# the nested ones, the only form reference_from_obj reads
TREE_FIXTURES = [name for name, doc in DOCS.items()
                 if "tree" in doc and "owners" not in doc["tree"]]


def normalised(doc: dict) -> dict:
    """The document with its preference pairs, ``r`` entries and
    ``win_sets`` in sorted order, and its arena edges grouped by source
    (a stable sort), which a dump may change."""
    doc = dict(doc)
    if "edges" in doc:
        doc["edges"] = sorted(doc["edges"], key=lambda e: e[0])
    if "preferences" in doc:
        doc["preferences"] = [{**p, "pairs": sorted(p["pairs"])}
                              for p in doc["preferences"]]
    for key in ("r", "win_sets"):
        if key in doc:
            doc[key] = sorted(doc[key])
    return doc


GAME = {"format": 1, "strategies": [2, 1], "outcomes": 2, "v": [0, 1],
        "preferences": [{"pairs": [[0, 1]]}, {"pairs": [[1, 0]]}]}
ARENA = {"format": 1, "vertices": 2, "owned": [0], "edges": [[0, 1], [1, 0]],
         "colors": [0, 1], "start": 0}


def build_game(doc):
    return et.GameStructure(doc["strategies"], et.OutcomeSet(doc["outcomes"]),
                            doc["v"])


def build_arena(doc):
    return et.Arena(doc["vertices"], doc["owned"], doc["edges"],
                    doc["colors"])


def build_preference(doc):
    return et.Preference(et.OutcomeSet(doc["outcomes"]),
                         doc["preferences"][0]["pairs"])


# Each value check jsonio leaves to a constructor: the document, where
# the bad value goes, the value, and the constructor call on the document.
GIVEN_UP = {
    "bad_pair": (GAME, ["preferences", 0, "pairs", 0], [0, 1.5],
                 build_preference),
    "bool_strategy_count": (GAME, ["strategies", 0], True, build_game),
    "bool_in_v": (GAME, ["v", 1], True, build_game),
    "entry_count": (GAME, ["v"], [0, 1, 1], build_game),
    "bool_vertices": (ARENA, ["vertices"], True, build_arena),
    "three_item_edge": (ARENA, ["edges", 0], [0, 1, 1], build_arena),
    "float_owned": (ARENA, ["owned", 0], 0.0, build_arena),
    "float_colour": (ARENA, ["colors", 1], 1.0, build_arena),
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixture_round_trips(self, name):
        """Compared with the document itself, so that a field dropped on
        load shows; a tree is written as the arrays it loaded to, and that
        text loads to equal arrays and preferences."""
        text = (FIXTURES / name).read_text()
        value, expected = jsonio.loads(text), json.loads(text)
        written = jsonio.dumps(value)
        if "tree" in expected:
            tree = value[0] if isinstance(value, tuple) else value
            expected["tree"] = {"owners": list(tree.owners),
                                "children": list(map(list, tree.children)),
                                "root": tree.root_code}
            assert (load_result(jsonio.loads, written)
                    == load_result(jsonio.loads, text))
        assert normalised(json.loads(written)) == normalised(expected)

    def test_seeded_trees_round_trip(self):
        """500 seeded trees numbered in preorder, with and without
        preferences, load back from the written text as they were."""
        rng = random.Random(24001)
        for k in range(500):
            n = rng.randint(1, 8)
            root, _ = (caterpillar_pair(rng, 600, n) if k % 25 == 0
                       else random_tree_pair(rng, rng.randint(0, 40), n))
            tree = index_tree(root, et.OutcomeSet(n))
            ranks = [rng.sample(range(n), n) for _ in range(2)]
            value = tree if k % 2 else (tree, et.PreferenceProfile(tuple(
                map(et.Preference.from_ranking, ranks))))
            assert (load_result(jsonio.loads, jsonio.dumps(value))
                    == load_result(same, value))

    def test_fixture_types(self):
        tree, prefs = jsonio.load(fixture_path("intro_payoff_tree.json"))
        assert isinstance(tree, et.GameTree)
        assert isinstance(prefs, et.PreferenceProfile)
        assert isinstance(jsonio.load(fixture_path("intro_structure.json")),
                          et.GameTree)
        assert isinstance(jsonio.load(fixture_path("xy_yx.json")),
                          et.GameStructure)
        arena, start, win_sets = jsonio.load(fixture_path("arena_small.json"))
        assert isinstance(arena, et.Arena)
        assert (start, win_sets) == (1, (frozenset({1, 2}),))
        assert isinstance(jsonio.load(fixture_path("priority_game.json")),
                          et.MultiOutcomeGraphGame)
        assert isinstance(jsonio.load(fixture_path("muller_game.json")),
                          et.MultiOutcomeGraphGame)

    def test_plain_arena_keeps_start_and_win_sets(self):
        """Once written back with start 0 and without its win_sets."""
        doc = json.loads((FIXTURES / "arena_small.json").read_text())
        assert doc["start"] == 1
        again = json.loads(jsonio.dumps(jsonio.from_obj(doc)))
        assert (again["start"], again["win_sets"]) == (1, [[1, 2]])
        del doc["win_sets"]
        assert jsonio.from_obj(doc)[1:] == (1, None)
        assert "win_sets" not in jsonio.to_obj(jsonio.from_obj(doc))
        assert jsonio.from_obj({**doc, "win_sets": None})[2] is None
        empty = jsonio.from_obj({**doc, "win_sets": []})
        assert empty[2] == ()
        assert jsonio.to_obj(empty)["win_sets"] == []

    def test_normal_form_game_round_trip(self):
        g = et.build("remark_5_3").game
        again = jsonio.loads(jsonio.dumps(g))
        assert isinstance(again, et.NormalFormGame)
        assert again.structure == g.structure
        assert again.preferences == g.preferences

    def test_dump_and_load_file(self, tmp_path):
        st = et.build("prop_5_5").structure
        path = tmp_path / "out.json"
        jsonio.dump(st, str(path))
        assert jsonio.load(str(path)) == st

    def test_deep_caterpillar_round_trips(self, tmp_path):
        """10^5 levels, which nested objects would write 2 * 10^5 JSON
        levels deep; the flat text nests four at any depth."""
        game = caterpillar_game(100_000)
        path = tmp_path / "deep.json"
        jsonio.dump(game, str(path))
        assert load_result(jsonio.load, str(path)) == load_result(same, game)

    def test_written_on_one_line(self):
        """No indent, so a flat tree's codes are not one to a line."""
        text = jsonio.dumps(caterpillar_game(50))
        assert text == json.dumps(json.loads(text)) + "\n"

    def test_flat_caterpillar_is_the_nested_one(self):
        assert (load_result(same, caterpillar_game(300))
                == load_result(jsonio.loads, caterpillar_text(300)))


class TestErrors:
    def test_malformed_json_reports_position(self):
        with pytest.raises(et.SchemaError) as exc:
            jsonio.loads('{"format": 1,\n  "v": [,]}')
        msg = str(exc.value)
        assert msg.startswith("malformed JSON:")
        assert "line 2" in msg and "column" in msg

    def test_wrong_format_version(self):
        with pytest.raises(et.SchemaError, match="unsupported format"):
            jsonio.loads('{"format": 2, "v": [0], "players": [1]}')

    @pytest.mark.parametrize("value", ["x", (), (et.OutcomeSet(1),)])
    def test_only_games_serialize(self, value):
        with pytest.raises(TypeError) as caught:
            jsonio.to_obj(value)
        assert str(caught.value) == f"cannot serialize {type(value).__name__}"

    def test_unrecognized_document(self):
        with pytest.raises(et.SchemaError, match="neither"):
            jsonio.loads('{"format": 1}')

    def test_non_object_top_level(self):
        with pytest.raises(et.SchemaError, match="object"):
            jsonio.loads("[1, 2]")

    def test_bad_outcomes_field(self):
        with pytest.raises(et.SchemaError, match="outcomes"):
            jsonio._outcome_set({"bogus": True})

    def test_outcome_cap_is_inclusive(self):
        cap = errors.MAX_OUTCOMES
        assert jsonio._outcome_set(cap).size == cap
        labels = [str(o) for o in range(cap + 1)]
        assert jsonio._outcome_set(labels[:cap]).size == cap
        for above in (cap + 1, labels):
            with pytest.raises(et.TooLargeError, match=f"cap of {cap}"):
                jsonio._outcome_set(above)

    def test_arena_missing_field(self):
        obj = json.loads((FIXTURES / "arena_small.json").read_text())
        del obj["edges"]
        with pytest.raises(et.SchemaError, match="edges"):
            jsonio.from_obj(obj)

    def test_arena_bad_start(self):
        obj = json.loads((FIXTURES / "arena_small.json").read_text())
        obj["start"] = 99
        with pytest.raises(et.SchemaError, match="start"):
            jsonio.from_obj(obj)

    @pytest.mark.parametrize("win_sets", [[1], "12", [[1, "2"]], [[1, True]],
                                          {"1": [2]}])
    def test_arena_bad_win_sets(self, win_sets):
        obj = json.loads((FIXTURES / "arena_small.json").read_text())
        obj["win_sets"] = win_sets
        with pytest.raises(et.SchemaError, match="win_sets"):
            jsonio.from_obj(obj)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(et.SchemaError, match="cannot read"):
            jsonio.load(str(tmp_path / "missing.json"))
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"format": 1, "outcomes": ["\xe9"]}')
        with pytest.raises(et.SchemaError, match="cannot read"):
            jsonio.load(str(path))

    def test_first_bad_preference_pair_is_named(self):
        """The pair list is checked in one pass; the message still names
        the first pair that is not two integers, as a check pair by pair
        would."""
        rng = random.Random(18)
        good = [[0, 1], [1, 2], [0, 2]]
        bad = [[1], [0, 1, 2], [0, 1.5], [0, True], ["0", 1], 5, None,
               "ab", [], {"x": 0}, [[0], 1]]
        for _ in range(300):
            pairs = [list(rng.choice(good)) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(1, 3)):
                pairs.insert(rng.randint(0, len(pairs)), rng.choice(bad))
            first = next(p for p in pairs if not (
                isinstance(p, list) and len(p) == 2
                and all(type(v) is int for v in p)))
            doc = {"format": 1, "strategies": [1, 1], "outcomes": 3,
                   "v": [0], "preferences": [{"pairs": []},
                                             {"pairs": pairs}]}
            with pytest.raises(et.SchemaError) as exc:
                jsonio.from_obj(doc)
            assert str(exc.value) == \
                f"preference pairs: {first!r} is not a pair of integers"

    @pytest.mark.parametrize("twin_first", [False, True])
    @pytest.mark.parametrize("twin", [[0, 1.0], [0, True]])
    def test_twin_of_an_int_pair_refused(self, twin, twin_first):
        """A frozenset would merge the twin into [0, 1]; each pair is
        checked before the set is built, in either order."""
        pairs = [twin, [0, 1]] if twin_first else [[0, 1], twin]
        doc = {"format": 1, "strategies": [1, 1], "outcomes": 2, "v": [0],
               "preferences": [{"pairs": pairs}, {"pairs": []}]}
        with pytest.raises(et.SchemaError,
                           match=rf"preference pairs: \[0, {twin[1]}\]"):
            jsonio.from_obj(doc)

    @pytest.mark.parametrize("tree, missing", [
        ({"owners": [1], "root": 0}, "children"),
        ({"children": [[-1]], "root": 0}, "owners"),
        ({"owners": [1], "children": [[-1]]}, "root")])
    def test_flat_tree_names_a_missing_field(self, tree, missing):
        doc = {"format": 1, "outcomes": 1, "tree": tree}
        with pytest.raises(et.SchemaError,
                           match=f"flat tree needs a '{missing}' field"):
            jsonio.from_obj(doc)

    @pytest.mark.parametrize("case", GIVEN_UP)
    def test_constructor_names_what_the_loader_leaves_to_it(self, case):
        """jsonio checks these values no more: the model constructor's
        ValueError is the loader's SchemaError, word for word."""
        base, where, value, build = GIVEN_UP[case]
        doc = copy.deepcopy(base)
        inner = doc
        for key in where[:-1]:
            inner = inner[key]
        inner[where[-1]] = value
        with pytest.raises(ValueError) as built:
            build(doc)
        with pytest.raises(et.SchemaError) as loaded:
            jsonio.from_obj(doc)
        assert str(loaded.value) == str(built.value)

    def test_unknown_kind(self):
        obj = json.loads((FIXTURES / "priority_game.json").read_text())
        obj["kind"] = "buechi"
        with pytest.raises(et.SchemaError, match="kind"):
            jsonio.from_obj(obj)


def load_result(load, doc) -> tuple:
    """What a loader makes of the document: its tree's arrays and its
    preferences, or its error's type and message."""
    try:
        value = load(doc)
    except et.EqTransferError as exc:
        return type(exc), str(exc)
    tree, prefs = value if isinstance(value, tuple) else (value, None)
    return (tree.owners, tree.children, tree.root_code, tree.outcomes,
            prefs)


def same(value):
    return value


DROP = object()


def single_defects(doc: dict):
    """The document with one value swapped for each of the fuzzer's
    values or for the outcome count and the one below it, or one object
    key dropped, at every position in turn."""
    outcomes = doc["outcomes"]
    n = len(outcomes) if isinstance(outcomes, list) else outcomes
    for k in range(len(slots(doc))):
        for value in VALUES + (n - 1, n, DROP):
            mutated = copy.deepcopy(doc)
            container, key = slots(mutated)[k]
            if value is DROP:
                if isinstance(container, list):
                    continue
                del container[key]
            else:
                container[key] = copy.deepcopy(value)
            yield mutated


class TestTreeLoading:
    """Documents load straight into ``GameTree``'s preorder arrays; the
    reference builds ``Node`` objects first and indexes them after."""

    def test_arrays_match_node_trees(self):
        rng = random.Random(21002)
        for k in range(500):
            n = rng.randint(1, 8)
            root, obj = (caterpillar_pair(rng, errors.MAX_TREE_DEPTH, n)
                         if k % 25 == 0
                         else random_tree_pair(rng, rng.randint(0, 40), n))
            expected = index_tree(root, et.OutcomeSet(n))
            doc = tree_document(obj, n)
            for tree in (jsonio.from_obj(doc), reference_from_obj(doc)):
                assert tree.owners == expected.owners
                assert tree.children == expected.children
                assert tree.root_code == expected.root_code
                assert tree.outcomes == expected.outcomes

    @pytest.mark.parametrize("name", TREE_FIXTURES)
    def test_single_defects_give_the_reference_message(self, name):
        doc = json.loads((FIXTURES / name).read_text())
        errors = 0
        for mutated in single_defects(doc):
            result = load_result(jsonio.from_obj, mutated)
            assert result == load_result(reference_from_obj, mutated), \
                mutated
            errors += result[0] is et.SchemaError
        assert errors >= 50

    def test_deep_caterpillar_loads_without_recursion(self):
        """The object json.loads makes of a caterpillar at the depth cap,
        built here directly, loads with little stack; one level more is
        refused."""
        depth = errors.MAX_TREE_DEPTH
        prefs = [{"pairs": [[0, 1], [1, 2]]}, {"pairs": [[2, 1]]}]
        root, obj = caterpillar_pair(random.Random(21003), depth, 3)
        doc = tree_document(obj, 3, prefs)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            tree, prefs = jsonio.from_obj(doc)
        finally:
            sys.setrecursionlimit(limit)
        assert prefs.players == 2
        assert tree.children == index_tree(root, et.OutcomeSet(3)).children
        _, obj = caterpillar_pair(random.Random(21003), depth + 1, 3)
        with pytest.raises(et.TooLargeError, match="nested deeper than 400"):
            jsonio.from_obj(tree_document(obj, 3))

    def test_depth_cap_holds_at_every_entry_point(self, tmp_path):
        """A 495-level caterpillar is refused with TooLargeError at a
        script's top level, in a fresh thread, through ``cli.main`` and
        under pytest, whichever layer refuses it there: the parser, whose
        reach depends on the caller's stack and the Python version, or the
        cap.  A caterpillar at the cap loads at all of them."""
        code = ("import sys, threading\n"
                "from eqtransfer import cli, jsonio, TooLargeError\n"
                "inside, past = sys.stdin.read().split('\\n')\n"
                "def refused(text):\n"
                "    try:\n"
                "        jsonio.loads(text)\n"
                "    except TooLargeError as exc:\n"
                "        print('refused:', exc)\n"
                "jsonio.loads(inside)\n"
                "try:\n"
                "    jsonio.loads(past)\n"
                "except TooLargeError as exc:\n"
                "    print('refused:', exc)\n"
                "for text in (inside, past):\n"
                "    thread = threading.Thread(target=refused, args=[text])\n"
                "    thread.start()\n"
                "    thread.join()\n"
                "print('exit', cli.main(['transfer', sys.argv[1]]))\n")
        src = str(Path(jsonio.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        inside = caterpillar_text(errors.MAX_TREE_DEPTH)
        past = caterpillar_text(495)
        (tmp_path / "past.json").write_text(past)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "past.json")],
            capture_output=True, text=True, input=inside + "\n" + past,
            env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = proc.stdout.splitlines()
        assert len(lines) == 3 and lines[2] == "exit 2", lines
        assert all(line.startswith("refused: ") and "nested deeper" in line
                   for line in lines[:2]), lines
        assert "nested deeper" in proc.stderr
        path = tmp_path / "inside.json"
        path.write_text(inside)
        assert cli.main(["transfer", str(path)]) == 0
        with pytest.raises(et.TooLargeError):
            jsonio.loads(past)
