"""Centralized numerical tolerances, argument checks and the state JSON layout.

The library's numerical thresholds live in one frozen record so that the
values are auditable in a single place, and the library reads them from
TOLS directly.  Only the ray's ``tol`` and ``s_max`` take a per-call
override; passing ``None`` there means "use the default".  Each solver's
own accuracy setting is a private constant of its module
(``bds._ZOOM_XATOL``, ``geometry2d._REFINE_TOL``,
``bds._LEVEL_SLACK``).  Most thresholds are absolute;
``discord_membership`` is relative to the state's Bloch weight, so that
the zero-discord sets are decided the same way at every scale.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

from .errors import ValidationError

__all__ = ["TOLS", "Tolerances"]


# Tolerances is a NamedTuple, and the other records of the numpy-free
# modules are FrozenRecord subclasses, not frozen dataclasses: importing
# ``dataclasses`` loads ``inspect``, about 12 ms of every numpy-free command.
# A variant of TOLS is TOLS._replace(field=value).
class Tolerances(NamedTuple):
    """The library's 14 numerical thresholds.  ``psd`` is the one bound on a
    state's negative eigenvalues, which for a ``BellDiagonalParams`` are
    its Bell weights."""

    # matrix-level structure
    hermiticity: float = 1e-12        # max |H - H^dag| accepted as Hermitian

    # state-level structure
    trace_one: float = 1e-10          # |tr(rho) - 1|
    psd: float = 1e-10                # lambda_min (a least Bell weight) >= -psd

    # support / rank decisions
    support_cutoff: float = 1e-10     # eigenvalues <= cutoff/10 are zero,
    #                                   >= cutoff*10 are invertible, between -> error
    support_leak: float = 1e-9        # tr((1-P) rho) above this means supp(rho) ⊄ supp(sigma)

    # free-set membership
    ppt: float = 1e-10                # lambda_min of the partial transpose
    discord_membership: float = 1e-9  # defect at or below this share of the Bloch weight
    #                                   counts as zero (zero-discord and bds-axes)
    bds_detect: float = 1e-10         # |x|,|y|,|offdiag T| for "is Bell diagonal"
    unfaithful_margin: float = 1e-8   # one-sided slack on F_max <= 1/d

    # solvers
    ray_bisection: float = 1e-6       # default bracket width for robustness_along_ray

    # planar geometry
    geometry_membership: float = 1e-9   # distance at which a point counts as in the set
    geometry_guard_factor: float = 10.0 # candidate hits closer than this*membership
    #                                     to the noise point are rejected (they encode s -> inf)

    # audits
    lipschitz_violation_slack: float = 1e-6  # ratio > L*(1+slack) counts as a violation
    audit_zero: float = 1e-9                 # |value| below this counts as zero in audits


TOLS = Tolerances()


class FrozenRecord:
    """Base of an immutable record: a subclass sets its fields once in
    ``__init__`` through ``object.__setattr__``, after which assigning or
    deleting an attribute raises AttributeError, as a frozen dataclass
    does.  ``repr`` shows the fields named in ``_repr_fields``; equality
    stays identity unless the subclass defines it."""

    _repr_fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._repr_fields)
        return f"{type(self).__qualname__}({body})"


def check_count(name: str, n, least: int = 1, most: int | None = None) -> int:
    """Return ``n`` as an int if it is an integer >= ``least`` (and <=
    ``most`` when given); raise ValidationError otherwise (NaN, infinities
    and non-numbers included)."""
    try:
        ok = n >= least and n % 1 == 0
    except TypeError:  # not a number
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be an integer >= {least}, got {n!r}")
    if most is not None and n > most:
        raise ValidationError(f"{name} must be at most {most}, got {n!r}")
    return int(n)


def check_real(
    name: str, v, lo: float = -math.inf, hi: float = math.inf, ends: str = "()"
) -> float:
    """Return ``v`` as a float if it is a real number in the interval from
    ``lo`` to ``hi``, each end open or closed as ``ends`` writes it ("()",
    "[)", "(]" or "[]").  An open infinite end excludes infinity, so the
    default interval is the finite reals.  Anything else raises
    ValidationError naming ``name``: strings, bytes, None, sequences,
    complex numbers and NaN included."""
    x = float(v) if isinstance(v, numbers.Real) else math.nan
    if (x > lo if ends[0] == "(" else x >= lo) and (x < hi if ends[1] == ")" else x <= hi):
        return x
    op = ">" if ends[0] == "(" else ">="
    if math.isfinite(hi):
        rule = f"in {ends[0]}{lo:.16g}, {hi:.16g}{ends[1]}"
    elif math.isinf(lo):
        rule = "finite"
    elif ends[1] == ")":
        rule = f"finite and {op} {lo:.16g}"
    else:
        rule = f"a number {op} {lo:.16g}"
    raise ValidationError(f"{name} must be {rule}, got {v!r}")


def ray_options(tol, s_max, dim: int) -> tuple[float, float]:
    """The bracket width and scan end of a ray on states of dimension
    ``dim``: TOLS.ray_bisection and 2*dim where None is given, and each
    must be finite and positive (ValidationError otherwise)."""
    tol = check_real("tol", TOLS.ray_bisection if tol is None else tol, 0.0)
    s_max = check_real("s_max", 2.0 * dim if s_max is None else s_max, 0.0)
    return tol, s_max


def state_json(dims, re: list[list[float]], im: list[list[float]]) -> dict:
    """A state in its canonical JSON form: dims and the tables of the real
    and imaginary parts of its matrix entries."""
    return {"dims": list(dims), "re": re, "im": im}
