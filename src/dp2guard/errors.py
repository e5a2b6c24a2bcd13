"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimension or fixed-point scale."""


class ShapeMismatch(ValueError):
    """Model and data shapes do not line up."""


class FormatError(ValueError):
    """A serialized payload or dataset file is malformed."""


class CountMismatch(ValueError):
    """Image and label counts in a dataset file disagree."""


class EmptyClientError(RuntimeError):
    """A data partition left at least one client with no samples."""


class ClientSetMismatch(ValueError):
    """The two servers hold shares for different client sets."""


class WeightError(ValueError):
    """Aggregation weights are negative or do not sum to one."""


class DegenerateError(ValueError):
    """Input carries no usable signal (e.g. an all-zero matrix)."""


class TooFewClients(ValueError):
    """An aggregation rule received fewer clients than it tolerates."""


class AllZeroTrust(RuntimeError):
    """Every trust score is zero, so weights cannot be normalized."""


class RoundNotFound(KeyError):
    """The ledger holds no block for the requested round."""


class ProtocolError(RuntimeError):
    """A server received a message out of phase or round order."""


class ConfigError(ValueError):
    """An experiment configuration is invalid or has unknown keys."""


class OutputExists(FileExistsError):
    """An output directory already holds another run's ledger."""
