"""Exception types shared across the library."""


class SessrecError(Exception):
    """Base class for all library errors."""


class ConfigError(SessrecError, ValueError):
    """Invalid configuration value or combination."""


class ShapeError(SessrecError, ValueError):
    """Tensor shapes incompatible for the requested operation."""


class NumericError(SessrecError, ArithmeticError):
    """Non-finite values where finite ones are required."""


class ItemIdError(SessrecError, IndexError):
    """Item id outside the valid range of a table or catalog."""


class ParseError(SessrecError, ValueError):
    """Malformed input record; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class EmptyDatasetError(SessrecError, ValueError):
    """A preprocessing or split step left no usable data."""


class PoolExhaustedError(SessrecError, RuntimeError):
    """In-batch sampling could not find enough candidates; names the session."""

    def __init__(self, message: str, session_id=None):
        super().__init__(message)
        self.session_id = session_id


class DivergenceError(SessrecError, RuntimeError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, message: str, snapshot: dict | None = None):
        super().__init__(message)
        self.snapshot = snapshot or {}


class CacheError(SessrecError, ValueError):
    """A prepared-dataset cache whose parts disagree; names the array or key at fault."""
