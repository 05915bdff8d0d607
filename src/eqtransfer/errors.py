"""Typed errors and the size caps behind TooLargeError; imports nothing."""

DEFAULT_PROFILE_CAP = 1_000_000
DEFAULT_OUTCOME_CAP = 20
# Most distinct colours a Muller solve may reach from its start: each split
# lists every subset of a colour set, 2^20 of them in about half a second.
MAX_MULLER_COLOURS = 20
# Most samples a sampled claim may draw: 1,000 prop_5_4 samples took 0.007 s
# at n = 8 and 0.5 s at n = 100 (2-core Xeon), so the cap costs 1 s to 1 min.
MAX_SAMPLES = 100_000
MAX_OUTCOMES = 4096
# Levels of a nested tree document: the parser recurses twice a level, and
# about 470 levels parse under the deepest caller stack seen (pytest).
MAX_TREE_DEPTH = 400


class EqTransferError(Exception):
    """Base class for all package-specific errors."""


class CyclicPreferenceError(EqTransferError):
    """An operation requiring an acyclic preference got a cyclic one."""


# Over finitely many outcomes a preference has unbounded chain height
# exactly when it is cyclic.
UnboundedHeightError = CyclicPreferenceError


class TooLargeError(EqTransferError):
    """An enumeration would exceed the configured size cap."""


class NotDeterminedError(EqTransferError):
    """A computation that presumes a determined structure detected a violation.

    A profitable deviation names its ``deviator`` and the strictly preferred
    ``outcome`` they reach; both are None for every other violation."""

    def __init__(self, message: str, deviator=None, outcome=None):
        super().__init__(message)
        self.deviator, self.outcome = deviator, outcome


class NotZeroSumError(EqTransferError):
    """The two preferences are not inverses of each other."""


class HypothesisViolatedError(EqTransferError):
    """A stated precondition on the input data does not hold."""


class BadIndexError(EqTransferError, IndexError):
    """A player, strategy, or outcome index is out of range."""


class UnknownNameError(EqTransferError, KeyError):
    """No corpus entry goes by the requested name."""


class SchemaError(EqTransferError, ValueError):
    """A JSON document or an argument does not match the expected schema."""
