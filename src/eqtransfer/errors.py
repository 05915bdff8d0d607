"""Typed errors shared across the package."""


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
