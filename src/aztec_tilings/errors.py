"""Exception types shared across the package."""


class InvalidOrderError(ValueError):
    """Region or graph order outside the valid range."""


class InvalidHolesError(ValueError):
    """Hole index set violates its size or range constraints."""


class TooLargeError(ValueError):
    """Instance exceeds an engine's explicit size guard."""


class FactorizationError(ValueError):
    """Axis is missing or not a valid symmetry axis for the graph."""


class CountMismatchError(RuntimeError):
    """Two exact engines disagreed, or an exactness check failed.

    This is always a bug, never a recoverable condition.
    """
