"""Exception types shared across the cache engine."""


class AgentKVError(Exception):
    """Base class for all engine errors."""

    code = "internal"


class NotFoundError(AgentKVError):
    """Unknown agent, preset, or file."""

    code = "not_found"


class InvalidArgumentError(AgentKVError):
    """Caller passed a structurally invalid argument."""

    code = "invalid_argument"


class InvalidValueError(AgentKVError):
    """Numeric input outside the representable domain (NaN/Inf, bf16 overflow)."""

    code = "invalid_value"


class ShapeError(AgentKVError):
    """Tensor shape inconsistent with the model spec."""

    code = "shape_error"


class SpecMismatchError(AgentKVError):
    """Cache data was produced under a different model spec."""

    code = "spec_mismatch"


class CorruptFileError(AgentKVError):
    """Cache file is malformed, truncated, or fails integrity checks."""

    code = "corrupt_file"


class PersistenceError(AgentKVError):
    """I/O failure while saving or loading a cache."""

    code = "persistence_error"


class EvictionFailedError(AgentKVError):
    """Eviction could not persist the victim; it stays resident."""

    code = "eviction_failed"


class ShuttingDownError(AgentKVError):
    """The daemon is shutting down and runs no more operations."""

    code = "shutting_down"
