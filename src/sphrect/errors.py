"""Exception types shared across the package."""
from __future__ import annotations

__all__ = [
    "SphrectError",
    "DomainError",
    "AccuracyError",
    "BracketError",
    "BelyiViolationError",
]


class SphrectError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SphrectError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AccuracyError(SphrectError):
    """A numerical routine could not meet the requested tolerance.

    Carries the best available estimate and its error bound so callers
    can decide whether the partial result is still usable.
    """

    def __init__(self, message: str, *, best: complex | float | None = None,
                 err_est: float | None = None):
        super().__init__(message)
        self.best = best
        self.err_est = err_est


class BracketError(SphrectError):
    """A root-finding scan failed to isolate exactly one sign change."""


class BelyiViolationError(SphrectError):
    """A critical value of a candidate Belyi map is not in {0, 1, inf}."""
