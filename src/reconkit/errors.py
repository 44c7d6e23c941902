"""Exception types shared across the package."""

__all__ = ["DivergenceError", "ValidationError"]


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition; the CLI exits 2."""


class DivergenceError(RuntimeError):
    """Raised when an iterative solver detects a growing objective, an
    iterate or residual that has left the finite range, or (in conjugate
    gradients) a non-positive curvature direction; the CLI exits 3.

    Carries the objective trace recorded up to the failing iteration so the
    caller can inspect what happened.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace

