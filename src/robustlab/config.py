"""Centralized numerical tolerances and argument checks.

Every threshold used by the library lives in one frozen record so that the
values are auditable in a single place, and the library reads them from
TOLS directly.  Only a few solver and audit parameters take a per-call
override (the ray's ``tol`` and ``s_max``, ``AuditConfig.tolerance`` and
``bds_params_of(tol)``); passing ``None`` there means "use the default
from TOLS".
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["TOLS", "Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    # matrix-level structure
    hermiticity: float = 1e-12        # max |H - H^dag| accepted as Hermitian

    # state-level structure
    trace_one: float = 1e-10          # |tr(rho) - 1|
    psd: float = 1e-10                # lambda_min >= -psd
    bds_positivity: float = 1e-12     # slack on the four tetrahedron inequalities

    # support / rank decisions
    support_cutoff: float = 1e-10     # eigenvalues <= cutoff/10 are zero,
    #                                   >= cutoff*10 are invertible, between -> error
    support_leak: float = 1e-9        # tr((1-P) rho) above this means supp(rho) ⊄ supp(sigma)

    # free-set membership
    ppt: float = 1e-10                # lambda_min of the partial transpose
    discord_membership: float = 1e-9  # discord defect at or below this counts as zero
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


def resolve(value: float | None, default: float) -> float:
    """Return ``value`` unless it is None, else ``default``."""
    return default if value is None else value


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
