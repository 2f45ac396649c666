"""Exception types shared across the package."""

__all__ = ["ConvergenceError", "DefectiveMatrixError", "NoMetricError", "OverflowRangeError"]


class DefectiveMatrixError(Exception):
    """Raised when an operation needs a complete eigenbasis but the input
    sits at (or numerically indistinguishable from) an exceptional point."""


class NoMetricError(Exception):
    """Raised when no invertible metric operator can be constructed."""


class OverflowRangeError(Exception):
    """Raised when a growing mode would overflow double precision."""


class ConvergenceError(Exception):
    """Raised when the underlying eigenvalue iteration fails to converge."""
