"""Exception types shared across the package.

Each class maps to one kind of failure so callers (and the CLI exit-code
table) can tell input mistakes apart from numerical trouble.
"""

from __future__ import annotations

__all__ = [
    "ValidationError",
    "PositivityError",
    "IllConditionedError",
    "StarConvexityViolationError",
    "ConfigurationError",
]


class ValidationError(ValueError):
    """An input violates a structural invariant (shape, hermiticity, trace...)."""


class PositivityError(ValidationError):
    """A would-be state has a negative eigenvalue or violates a positivity
    constraint; the message names the constraint that failed."""


class IllConditionedError(ArithmeticError):
    """A decision rests on a number within rounding of its threshold: an
    eigenvalue too close to the support cutoff to classify as zero or
    nonzero, or the margin by which the noise state of an LMI ray passes
    the test, too small for the probe at twice the Weyl bound to pass.
    Refusing to guess."""


class StarConvexityViolationError(RuntimeError):
    """Membership along a noise ray was not monotone, so bisection against
    the free-set oracle is unsound for this input.  Raised only for oracles
    without an ``lmi`` field: an LMI set is convex, so its free mixtures
    along a ray form an interval that any scan pattern brackets."""


class ConfigurationError(ValueError):
    """An audit or oracle was wired up inconsistently (e.g. a channel that
    does not preserve the free set it is audited against)."""
