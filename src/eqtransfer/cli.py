"""Command-line front end: load JSON games, solve, transfer, verify.

Exit codes: 0 success / claims hold; 1 claim failure, not determined or
standard output closed early; 2 malformed input or usage error.  The
normal-form model and the corpus, and numpy with them, are imported only
by the commands and inputs that need them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from . import jsonio
from .errors import (DEFAULT_OUTCOME_CAP, DEFAULT_PROFILE_CAP, MAX_SAMPLES,
                     BadIndexError, EqTransferError, NotDeterminedError,
                     SchemaError, TooLargeError, UnknownNameError)
from .extensive import (GameTree, TreeOracle, strategy_from_index,
                        to_normal_form)
from .graph_games import (MULLER, Arena, MultiOutcomeGraphGame, solve_muller,
                          solve_parity)
from .prefs import _check_profile
from .transfer import (OracleStrategy, _game_backend, _verify_profile,
                       equilibrium)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    for line in report.get("lines", []):
        print(line)


def _refused(command: str, needs: str, value) -> SchemaError:
    """The error for an arena input, a graph game or a plain arena, given
    to a command that cannot take it."""
    if isinstance(value, MultiOutcomeGraphGame):
        got = "a Muller game" if value.kind == MULLER else "a priority game"
    else:
        got = "a plain arena, which solve-parity and solve-muller take"
    return SchemaError(f"{command} needs {needs}, got {got}")


def _normal_form(value, command: str, prefs: bool = True,
                 cap: int = DEFAULT_PROFILE_CAP):
    """The input as a normal-form game, or as a bare structure or tree
    when ``prefs`` is false; a tree with preferences is converted under
    the profile cap; a bare tree needs no normal-form model."""
    st, profile = value, None
    if isinstance(value, tuple) and isinstance(value[0], GameTree):
        st, profile = value
    if isinstance(st, GameTree) and not prefs:
        return st
    from .normal_form import GameStructure, NormalFormGame
    if isinstance(value, NormalFormGame):
        st, profile = value.structure, value.preferences
    if not isinstance(st, (GameStructure, GameTree)):
        raise _refused(command, "a normal-form game or a game tree", value)
    if prefs and profile is None:
        raise SchemaError("input must be a game with preferences")
    if prefs and isinstance(st, GameTree):
        st = to_normal_form(st, cap)
    return NormalFormGame(st, profile) if prefs else st


def _cmd_solve(args) -> tuple[dict, int]:
    from .normal_form import find_all_ne
    nes = find_all_ne(_normal_form(jsonio.load(args.input), "solve",
                                   cap=args.cap), cap=args.cap)
    return {
        "command": "solve",
        "equilibria": [list(p) for p in nes],
        "count": len(nes),
        "lines": [f"{len(nes)} Nash equilibria"]
                 + [f"  {tuple(p)}" for p in nes],
    }, EXIT_OK


def _cmd_check_determinacy(args) -> tuple[dict, int]:
    st = _normal_form(jsonio.load(args.input), "check-determinacy",
                      prefs=False)
    if not isinstance(st, GameTree) and st.players != 2:
        raise SchemaError("check-determinacy needs a two-player structure, "
                          f"got {st.players} players")
    # Backward induction gives every label of a tree a winner (Zermelo,
    # Kuhn), so a tree needs neither its normal form nor the outcome cap.
    determined, witness = True, {}
    if not isinstance(st, GameTree):
        from .normal_form import _undetermined
        label = _undetermined(st, args.cap)  # a label neither player wins
        determined = label is None
        if not determined and args.json:
            witness["witness"] = [st.outcomes.label(o) for o in
                                  range(st.outcomes.size) if label >> o & 1]
    return {
        "command": "check-determinacy",
        "determined": determined,
        **witness,
        "lines": ["determined" if determined else "not determined"],
    }, EXIT_OK if determined else EXIT_FAIL


def _counter_lines(counter, n: int) -> list[str]:
    return [f"{name} = {calls} ({'<=' if calls <= bound else '>'} {shown})"
            for name, calls, bound, shown in (
                ("winner_calls", counter.winner_calls, n, f"n = {n}"),
                ("strategy_calls", counter.strategy_calls, 2, "2"))]


# by class name: the normal-form backend is imported only when a game needs it
_ORACLE_NAMES = {"StructureOracle": "brute", "TreeOracle": "tree",
                 "PriorityOracle": "parity", "MullerOracle": "muller"}


def _cmd_transfer(args) -> tuple[dict, int]:
    value = jsonio.load(args.input)
    if isinstance(value, tuple) and isinstance(value[0], Arena):
        raise _refused("transfer", "a game with preferences", value)
    backend, prefs = _game_backend(value)
    result = equilibrium(backend, prefs)
    label = prefs.outcomes.label(result.outcome)
    return {
        "command": "transfer",
        "oracle": _ORACLE_NAMES[type(backend).__name__],
        "outcome": result.outcome,
        "outcome_label": label,
        "winner_calls": result.counter.winner_calls,
        "strategy_calls": result.counter.strategy_calls,
        **(_json_only(backend, result, prefs.outcomes) if args.json else {}),
        "lines": [f"Nash equilibrium outcome: {label}"]
                 + _counter_lines(result.counter, prefs.outcomes.size),
    }, EXIT_OK


def _json_only(backend, result, outcomes) -> dict:
    """What only --json prints: the strategies, as a tree's decode is
    quadratic in its depth, and the transfer's queries as outcome labels,
    each winner probe by the outcome it tries to drop (linear in n)."""
    name, n = outcomes.label, outcomes.size
    word, probes = (1 << n) - 1, []
    for label, winner in result.probes:
        probes.append({"without": name((word ^ label).bit_length() - 1),
                       "winner": winner})
        word = label if winner == 1 else word
    return {"strategies": [_oracle_strategy_obj(backend, s)
                           for s in (result.strategy_1, result.strategy_2)],
            "probes": probes,
            "enforced": [name(o) for o in range(n) if result.enforced >> o & 1],
            "drop": [name(o) for o in range(n) if result.drop >> o & 1]}


def _oracle_strategy_obj(backend, s: OracleStrategy) -> dict:
    """Tree handles are printed as per-node choices: as normal-form indices
    they run to thousands of digits on large trees."""
    if isinstance(backend, TreeOracle):
        choice = strategy_from_index(backend.tree, s.player, s.handle)
        return {"type": "tree", "player": s.player,
                "choices": {str(n): c for n, c in choice.items()}}
    if isinstance(s.handle, int):
        return {"type": "index", "player": s.player, "index": s.handle}
    return _strategy_obj(s.handle)


def _strategy_obj(s) -> dict:
    """An arena strategy: its moves when it has one state per vertex, its
    graph otherwise."""
    if len(set(s.vertex)) == s.num_states:
        return {"type": "positional", "player": s.player,
                "moves": {str(v): w for v, w in sorted(_moves(s).items())}}
    return {"type": "finite-memory", "player": s.player,
            "states": s.num_states, "vertex": list(s.vertex),
            "succ": [list(out) for out in s.succ], "move": list(s.move),
            "entry": {str(v): e for v, e in s.entry.items()}}


def _moves(s) -> dict[int, int]:
    """The successor each state of the player's vertices moves to, by
    vertex: a positional strategy's moves."""
    return {s.vertex[i]: s.vertex[s.succ[i][k]]
            for i, k in enumerate(s.move) if k >= 0}


def _cmd_solve_arena(args) -> tuple[dict, int]:
    value = jsonio.load(args.input)
    if not (isinstance(value, tuple) and isinstance(value[0], Arena)):
        raise SchemaError(f"{args.command} needs a plain arena input")
    arena, start, win_sets = value
    if args.command == "solve-parity":
        winner, strat = solve_parity(arena, start)
        detail = f"positional strategy: {dict(sorted(_moves(strat).items()))}"
    else:
        winner, strat = solve_muller(arena, start, win_sets)
        detail = f"finite-memory strategy, {strat.num_states} states"
    return {
        "command": args.command,
        "winner": winner,
        "strategy": _strategy_obj(strat),
        "lines": [f"player {winner} wins from vertex {start}", detail],
    }, EXIT_OK


def _cmd_verify_ne(args) -> tuple[dict, int]:
    game = jsonio.load(args.input)
    tree = isinstance(game, tuple) and isinstance(game[0], GameTree)
    game = game if tree else _normal_form(game, "verify-ne")
    try:
        profile = tuple(int(x) for x in args.profile.split(","))
    except ValueError as exc:
        raise SchemaError(f"bad profile {args.profile!r}: "
                          "expected comma-separated indices") from exc
    if tree:  # checked on the tree: the indices are TreeOracle's handles
        t, prefs = game
        _check_profile(profile, (t.strategy_count(1), t.strategy_count(2)))
        ok = _verify_profile(t.backend(), prefs, *profile)[1] is None
    else:
        from .normal_form import is_nash_equilibrium
        ok = is_nash_equilibrium(game, profile)
    return {
        "command": "verify-ne",
        "profile": list(profile),
        "is_nash_equilibrium": ok,
        "lines": [f"{profile} is {'an equilibrium' if ok else 'not an equilibrium'}"],
    }, EXIT_OK if ok else EXIT_FAIL


def _cmd_corpus(args) -> tuple[dict, int]:
    from . import corpus
    if args.action == "list":
        entries = corpus.list_entries()
        return {
            "command": "corpus-list",
            "entries": [{"name": n, "description": d} for n, d in entries],
            "lines": [f"{n}: {d}" for n, d in entries],
        }, EXIT_OK
    entry = corpus.build(args.name, n=args.n)
    if args.action == "build":
        st = entry.structure
        return {
            "command": "corpus-build",
            "name": entry.name,
            "executable": entry.executable,
            "claims": [c.name for c in entry.claims],
            "lines": [f"{entry.name}: {entry.description}",
                      "statement only, not executable" if st is None else
                      f"strategies {st.strategy_counts}, {st.outcomes.size} "
                      f"outcomes, {len(entry.claims)} claims"],
        }, EXIT_OK
    reports = corpus.verify(entry, seed=args.seed, samples=args.samples)
    all_ok = all(r.passed for r in reports)
    lines = [f"{r.claim}: {'confirmed' if r.passed else 'FAILED'} "
             f"({'exhaustive' if r.exhaustive else 'sampled'}; {r.detail})"
             for r in reports] or [
        "statement only, not executable; nothing to verify"]
    return {
        "command": "corpus-verify",
        "name": entry.name,
        "passed": all_ok,
        "claims": [{"claim": r.claim, "passed": r.passed,
                    "exhaustive": r.exhaustive, "detail": r.detail}
                   for r in reports],
        "lines": lines,
    }, EXIT_OK if all_ok else EXIT_FAIL


class _BeforeCommand(argparse.Action):
    """An option written before the commands that take it, ``const``."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} goes after the command: {self.const}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqtransfer",
        description="Solve games and transfer win-lose determinacy into "
                    "Nash equilibria.")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    sub = parser.add_subparsers(dest="command", required=True)
    takes: dict[str, list[str]] = {}  # each option's commands

    def option(p, flag, **settings):
        p.add_argument(flag, **settings)
        takes.setdefault(flag, []).append(p.prog.partition(" ")[2])

    for name, func, text, *options in (
            ("solve", _cmd_solve, "enumerate all Nash equilibria",
             ("--cap", dict(type=int, default=DEFAULT_PROFILE_CAP, help=(
                 "profile cap, tree conversion included (default "
                 "%(default)s)")))),
            ("check-determinacy", _cmd_check_determinacy,
             "check every derived win-lose game has a winner",
             ("--cap", dict(type=int, default=DEFAULT_OUTCOME_CAP, help=(
                 "outcome cap of a normal form (default %(default)s)")))),
            ("transfer", _cmd_transfer, "compute a Nash equilibrium via the "
             "win-lose oracle of the input's kind"),
            ("solve-parity", _cmd_solve_arena, "solve a parity game on an arena"),
            ("solve-muller", _cmd_solve_arena, "solve a Muller game on an arena"),
            ("verify-ne", _cmd_verify_ne, "check a profile for equilibrium",
             ("--profile", dict(required=True, help=(
                 "comma-separated strategy indices, 0-based"))))):
        p = sub.add_parser(name, help=text)
        p.add_argument("input")
        p.set_defaults(func=func)
        for flag, settings in options:
            option(p, flag, **settings)

    p = sub.add_parser("corpus", help="list, build, or verify corpus entries")
    p.set_defaults(func=_cmd_corpus)
    actions = p.add_subparsers(dest="action", required=True)
    actions.add_parser("list", help="name and describe every entry")
    build = actions.add_parser("build", help="build one entry")
    verify = actions.add_parser("verify", help="check one entry's claims")
    for action in (build, verify):
        action.add_argument("name")
        option(action, "--n", type=int, default=None,
               help="size parameter of prop_5_4, 2 to 100; the other "
                    "entries take none")
    option(verify, "--samples", type=int, default=1000,
           help="sample count for non-exhaustive claims, 1 to "
                f"{MAX_SAMPLES}")
    option(verify, "--seed", type=int, default=0,
           help="seed of the sampled claims (default 0)")
    for flag, names in takes.items():
        for before in (parser, p):  # before the command or a corpus action
            before.add_argument(flag, action=_BeforeCommand,
                                const=", ".join(names), help=argparse.SUPPRESS)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves the
    parser as it was, and building it costs more than most runs."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``): devnull takes the
        # interpreter's last flush, which would fail again.
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL


def _main(argv: Optional[list[str]]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        try:
            report, code = args.func(args)
            _emit(report, args.json)
            return code
        except MemoryError:  # leaving the handler frees what the run built
            pass
        raise TooLargeError("input too large for available memory")
    except EqTransferError as exc:
        prefix = ("not determined" if isinstance(exc, NotDeterminedError)
                  else "error")
        print(f"{prefix}: {exc}", file=sys.stderr)
        if args.json:
            report = {"command": args.command, "error": type(exc).__name__,
                      "message": str(exc)}
            if getattr(exc, "deviator", None) is not None:
                report.update(deviator=exc.deviator, outcome=exc.outcome)
            _emit(report, True)
        if isinstance(exc, (SchemaError, UnknownNameError, TooLargeError,
                            BadIndexError)):
            return EXIT_INPUT
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
