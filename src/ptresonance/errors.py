"""Exception types shared across the package, one per CLI exit code:
``ValueError`` (1; ``ConvergenceError`` is one), ``DefectiveMatrixError`` (3),
``NoMetricError`` (4) and ``FloatingPointError`` (5; ``OverflowRangeError`` is one)."""

__all__ = ["ConvergenceError", "DefectiveMatrixError", "NoMetricError", "OverflowRangeError"]


class DefectiveMatrixError(Exception):
    """Raised when an operation needs a complete eigenbasis but the input
    sits at (or numerically indistinguishable from) an exceptional point."""


class NoMetricError(Exception):
    """Raised when no invertible metric operator can be constructed."""


class OverflowRangeError(FloatingPointError):
    """Raised when a value would leave the double range or lose its digits there."""


class ConvergenceError(ValueError):
    """Raised when the underlying eigenvalue iteration fails to converge."""
