"""Centralized numerical tolerances.

Every threshold used by the library lives in one frozen record so that the
defaults are auditable in a single place.  Functions take explicit keyword
overrides where a caller might reasonably want a different value; passing
``None`` means "use the default from TOLS".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # matrix-level structure
    hermiticity: float = 1e-12        # max |H - H^dag| accepted as Hermitian
    reconstruction_per_dim: float = 1e-10   # |H - V L V^dag| <= this * dim

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
    axis_opt_xatol: float = 1e-9      # axis optimizer stops at zoom brackets this wide in k

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
    return default if value is None else float(value)
