"""Exception types shared across the package.

Every class derives from `Dp2GuardError`, so a caller can catch any error
the package raises on purpose in one place, and also from the builtin
exception it refines, so `except ValueError` and the like still work.
"""


class Dp2GuardError(Exception):
    """Base of every exception type defined by this package."""


class DimensionMismatch(Dp2GuardError, ValueError):
    """Operands have incompatible dimension or fixed-point scale."""


class EncodingOverflow(Dp2GuardError, OverflowError):
    """A value is non-finite or beyond the fixed-point range."""


class ShapeMismatch(Dp2GuardError, ValueError):
    """Model and data shapes do not line up."""


class FormatError(Dp2GuardError, ValueError):
    """A serialized payload or dataset file is malformed."""


class CountMismatch(Dp2GuardError, ValueError):
    """Image and label counts in a dataset file disagree."""


class EmptyClientError(Dp2GuardError, RuntimeError):
    """A data partition left at least one client with no samples."""


class ClientSetMismatch(Dp2GuardError, ValueError):
    """The two servers hold shares for different client sets."""


class WeightError(Dp2GuardError, ValueError):
    """Aggregation weights are negative or do not sum to one."""


class DegenerateError(Dp2GuardError, ValueError):
    """Input carries no usable signal (e.g. an all-zero matrix)."""


class NonFiniteGradient(Dp2GuardError, FloatingPointError):
    """A client's local gradient has a NaN or infinite entry: training
    diverged."""


class NonFiniteModel(Dp2GuardError, FloatingPointError):
    """The global model has a NaN or infinite parameter or test logit:
    training diverged."""


class TooFewClients(Dp2GuardError, ValueError):
    """An aggregation rule received fewer clients than it tolerates."""


class AllZeroTrust(Dp2GuardError, RuntimeError):
    """Every trust score is zero, so weights cannot be normalized."""


class RoundNotFound(Dp2GuardError, KeyError):
    """The ledger's head is not the requested round's block."""


class ProtocolError(Dp2GuardError, RuntimeError):
    """A server received a message out of phase or round order."""


class ConfigError(Dp2GuardError, ValueError):
    """An experiment configuration is invalid or has unknown keys."""


class OutputExists(Dp2GuardError, FileExistsError):
    """An output directory already holds another run's ledger."""
