"""Exception types shared across the package.

Each class maps to one failure mode so callers (and the CLI exit-code
table) can tell input mistakes apart from numerical trouble.
"""

from __future__ import annotations

__all__ = [
    "ValidationError",
    "PositivityError",
    "IllConditionedError",
    "StarConvexityViolationError",
    "RayRangeError",
    "ConfigurationError",
]


class ValidationError(ValueError):
    """An input violates a structural invariant (shape, hermiticity, trace...)."""


class PositivityError(ValidationError):
    """A would-be state has a negative eigenvalue or violates a positivity
    constraint; the message names the constraint that failed."""


class IllConditionedError(ArithmeticError):
    """An eigenvalue sits too close to the support cutoff to classify as
    zero or nonzero; refusing to guess the rank."""


class StarConvexityViolationError(RuntimeError):
    """Membership along a noise ray was not monotone, so bisection against
    the free-set oracle is unsound for this input."""


class RayRangeError(RuntimeError):
    """A noise ray reaches the free set, but only past the scanned range
    s_max, so the bisection found no free point to start from."""


class ConfigurationError(ValueError):
    """An audit or oracle was wired up inconsistently (e.g. a channel that
    does not preserve the free set it is audited against)."""
