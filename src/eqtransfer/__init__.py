"""Equilibrium transfer: from win-lose determinacy to Nash equilibria.

The package turns any solver for two-player win-lose games (brute force,
backward induction on trees, parity, Muller) into a Nash-equilibrium finder
for multi-outcome games, and ships an executable corpus of three-player
counterexamples delimiting how far the technique extends.  A public name
imports its module when first read (PEP 562), so numpy comes only with
the normal-form model and the corpus.
"""

import importlib

# Each module's public names, which ``__all__`` lists and ``__getattr__`` reads.
_NAMES = {
    "errors": ("BadIndexError", "CyclicPreferenceError", "EqTransferError",
               "HypothesisViolatedError", "NotDeterminedError",
               "NotZeroSumError", "SchemaError", "TooLargeError",
               "UnboundedHeightError", "UnknownNameError",
               "DEFAULT_OUTCOME_CAP", "DEFAULT_PROFILE_CAP"),
    "prefs": ("OutcomeSet", "Preference", "PreferenceProfile", "height",
              "is_acyclic", "is_strict_linear", "linear_extension", "rank"),
    "transfer": ("CallCounter", "GameBackend", "OracleStrategy",
                 "TransferResult", "WinLoseOracle", "equilibrium",
                 "max_enforceable_word", "run_transfer"),
    "normal_form": ("GameStructure", "NormalFormGame", "Profile",
                    "StructureOracle", "enforcing_strategy", "find_all_ne",
                    "is_determined", "is_nash_equilibrium", "merge_players",
                    "slice_structure", "transfer_equilibrium"),
    "extensive": ("GameTree", "TreeOracle", "kuhn_via_transfer", "play_tree",
                  "strategy_from_index", "strategy_to_index",
                  "to_normal_form"),
    "graph_games": ("Arena", "FiniteMemoryStrategy", "MullerOracle",
                    "MultiOutcomeGraphGame", "Play", "PriorityOracle",
                    "achievable_deviation_outcomes", "multi_outcome_ne",
                    "parity_regions", "play_of", "solve_muller",
                    "solve_parity"),
    "corpus": ("Claim", "ClaimReport", "CorpusEntry", "build", "list_entries",
               "verify"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items()
              for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A module of the table, or a public name kept in the package's
    globals once its module is imported, so later reads never come here."""
    if name in _NAMES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
