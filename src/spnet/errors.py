"""Exception types shared across the package."""


class GraphValidationError(ValueError):
    """Raised when an input graph violates a structural requirement."""


class NotSeriesParallelError(Exception):
    """Raised when a two-terminal graph cannot be reduced to a single edge."""


class InfeasibleBoundsError(ValueError):
    """Raised when a Loewner box [L, U] is empty (L is not below U)."""


class ProjectionError(RuntimeError):
    """Raised when the box projection of a descent step misses its stop rule."""
