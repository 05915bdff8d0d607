"""Equilibrium transfer: from win-lose determinacy to Nash equilibria.

The package turns any solver for two-player win-lose games (brute force,
backward induction on trees, parity, Muller) into a Nash-equilibrium finder
for multi-outcome games, and ships an executable corpus of three-player
counterexamples delimiting how far the technique extends.
"""

from .errors import (BadIndexError, CyclicPreferenceError, EqTransferError,
                     HypothesisViolatedError, NotDeterminedError,
                     NotZeroSumError, SchemaError, TooLargeError,
                     UnboundedHeightError, UnknownNameError)
from .prefs import (OutcomeSet, Preference, PreferenceProfile, height,
                    is_acyclic, is_strict_linear, linear_extension, rank)
from .transfer import (CallCounter, GameBackend, OracleStrategy,
                       TransferResult, WinLoseOracle, equilibrium,
                       max_enforceable_word, run_transfer)
from .normal_form import (DEFAULT_OUTCOME_CAP, DEFAULT_PROFILE_CAP,
                          GameStructure, NormalFormGame, Profile,
                          StructureOracle, enforcing_strategy, find_all_ne,
                          is_determined, is_nash_equilibrium, merge_players,
                          slice_structure, transfer_equilibrium)
from .extensive import (GameTree, TreeOracle, kuhn_via_transfer, play_tree,
                        strategy_from_index, strategy_to_index, to_normal_form)
from .graph_games import (Arena, FiniteMemoryStrategy, MullerOracle,
                          MultiOutcomeGraphGame, Play, PriorityOracle,
                          achievable_deviation_outcomes, multi_outcome_ne,
                          parity_regions, play_of, solve_muller, solve_parity)
from .corpus import (Claim, ClaimReport, CorpusEntry, build, list_entries,
                     verify)

from types import ModuleType as _ModuleType

__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
