"""Robustness engines and Lipschitz-constant constructors.

Two complementary computations:

* ``robustness_along_ray`` mixes the input with one fixed noise state and
  bisects for the first free mixture.  Sound whenever membership along the
  ray is monotone (guaranteed if the free set is star-convex with respect
  to the noise state), and for a set stated as a linear matrix inequality,
  whose free mixtures form an interval that Weyl's inequality bounds when
  the noise is free; on other sets non-monotone membership is raised.
* ``min_scaling_robustness`` evaluates, for a fixed candidate free state
  sigma, the least s with rho <= (1+s) sigma; optimizing it over a free
  family gives the global robustness restricted to that family.

Values use ``math.inf`` for unreachable configurations; no finite
sentinels are ever returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .bds import (
    _KERNEL_MAX,
    _SUPPORT_MIN,
    BellDiagonalParams,
    _params,
    discord_axis_search,
    discord_levelset_grid,
    discord_robustness_bds,
)
from .config import TOLS, check_count, check_real, ray_options
from .errors import IllConditionedError, StarConvexityViolationError
from .operator_core import _require_finite, require_hermitian
from .qstates import (
    DensityMatrix,
    _require_same_dims,
    bell_diagonal,
    bell_state_vectors,
    bloch_decompose,
)

if TYPE_CHECKING:
    from .free_sets import FreeSetOracle

__all__ = [
    "RobustnessResult",
    "LipschitzConstant",
    "robustness_along_ray",
    "min_scaling_robustness",
    "discord_robustness_bds",
    "discord_robustness_axis_opt",
    "discord_robustness_bounds",
    "discord_filtered_measure",
    "discord_levelset_grid",
    "lipschitz_from_kappa_ball",
    "bound_from_kappa_ball",
    "lipschitz_teleport",
]


@dataclass(frozen=True)
class RobustnessResult:
    """Outcome of a robustness computation.

    When ``value`` is finite and positive, mixing the input with
    ``noise_witness`` at weight value/(1+value) reproduces ``free_witness``
    exactly, and the free witness is a member of the target set.
    ``bracket_width`` records the final uncertainty of the underlying
    1-d search (bisection bracket, or the final zoom bracket in k of the
    axis optimizer's best axis).
    """

    value: float
    noise_witness: Optional[DensityMatrix]
    free_witness: Optional[DensityMatrix]
    method: str
    iterations: int
    bracket_width: float


@dataclass(frozen=True)
class LipschitzConstant:
    """A constant together with a label recording how it was obtained."""

    L: float
    provenance: str


# the ray's coarse scan tests the points s_max * (i / _RAY_SCAN_POINTS) for
# i = 1..8 before bisecting; with a power-of-two count each point equals
# np.linspace(0, s_max, 9)[i] exactly
_RAY_SCAN_POINTS = 8


def robustness_along_ray(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    oracle: FreeSetOracle,
    s_max: float | None = None,
    tol: float | None = None,
) -> RobustnessResult:
    """Least s >= 0 with (rho + s sigma)/(1+s) in the oracle's set.

    A coarse scan of the points s_max*i/8, i = 1..8, brackets the value:
    with no free scan point it is inf, otherwise bisection runs between
    the first free point and the one before it.  The returned value is
    the feasible end of the final bracket, so the free witness is always
    a genuine member.  ``tol`` and ``s_max`` must be finite and positive
    (ValidationError otherwise).

    The ray probes the pencil (A + sB)/(1+s).  For an oracle without
    ``lmi``, A = rho and B = sigma, and ``member`` is called on each
    mixture.  Bisection is then sound only where membership is monotone
    along the ray (guaranteed if the set is star-convex with respect to
    sigma), so a scan that leaves the set after entering it raises
    StarConvexityViolationError.  For an oracle with an ``lmi`` field
    (L, lmi_tol), A = L(rho) and B = L(sigma) are built once and every
    probe is lambda_min((A + sB)/(1+s)) >= -lmi_tol, the oracle's own rule
    on the mixture; the eight scan probes are one ``eigvalsh`` on the
    stack of their matrices, built with the scalar probe's float
    operations (same flags; ``iterations`` still counts eight probes).
    Its free mixtures are the s with A' + sB' psd, where X' = X + lmi_tol 1:
    an interval for every noise, so any scan pattern brackets its left
    end.  With no free scan point and lambda_min(B') > 0, Weyl's
    inequality puts that end at or below s_W = -lambda_min(A')/lambda_min(B'),
    so one more probe, at top = 2 s_W, opens the bracket (s_max, top]; if
    it fails, lambda_min(B') is within rounding of 0 (IllConditionedError).

    States hold finite entries by construction, but s B can overflow and a
    custom ``lmi`` map can return NaN or inf, so a finiteness check on
    A + s_max B before the first probe, and on A + top B before the probe
    at top, covers every probe (each entry of A + sB lies between those of
    A and of the checked end): ValidationError, even when rho is free.
    For the two zero-discord sets toward noise in their star kernel
    (1/4 for both, sigma_A x 1/2 for ``zero-discord``), a scan with no
    free point is an exact inf: their membership is the same all along
    such a ray (see ``free_sets.has_zero_discord``), so the value is 0 or
    inf.
    """
    _require_same_dims(rho, sigma)
    tol, s_max = ray_options(tol, s_max, rho.dim)
    grid = [s_max * (i / _RAY_SCAN_POINTS) for i in range(_RAY_SCAN_POINTS + 1)]

    def mix(s: float) -> DensityMatrix:
        m = (rho.mat + s * sigma.mat) / (1.0 + s)
        return DensityMatrix(m, rho.dims, validate=False)

    if oracle.lmi is None:
        a, b = rho.mat, sigma.mat

        def member(s: float) -> bool:
            return bool(oracle.member(mix(s)))

        def scan() -> list[bool]:
            flags = [member(s) for s in grid[1:]]
            if flags != sorted(flags):  # a free point before one that is not
                raise StarConvexityViolationError(
                    f"membership along the ray toward the noise state is not monotone "
                    f"(pattern F{''.join('T' if f else 'F' for f in flags)}); "
                    f"the set is not star-convex with respect to this noise state"
                )
            return flags

    else:
        to_matrix, lmi_tol = oracle.lmi
        a, b = to_matrix(rho), to_matrix(sigma)

        def member(s: float) -> bool:
            return float(np.linalg.eigvalsh((a + s * b) / (1.0 + s))[0]) >= -lmi_tol

        def scan() -> list[bool]:
            s = np.array(grid[1:])[:, None, None]
            flags = (np.linalg.eigvalsh((a + s * b) / (1.0 + s))[:, 0] >= -lmi_tol).tolist()
            lam = 0.0 if any(flags) else float(np.linalg.eigvalsh(b)[0]) + lmi_tol
            if lam > 0.0:  # free noise: its value lies in (s_max, top]
                top = -2.0 * (float(np.linalg.eigvalsh(a)[0]) + lmi_tol) / lam
                with np.errstate(over="ignore", invalid="ignore"):
                    _require_finite(a + top * b)
                if not (top > s_max and member(top)):
                    raise IllConditionedError(
                        f"the mixture at s = {top!r}, twice the Weyl bound, is not free: "
                        f"the noise state's margin {lam:.3e} is within rounding of 0"
                    )
                grid.append(top)
                flags.append(True)
            return flags

    with np.errstate(over="ignore", invalid="ignore"):  # the check reports them
        _require_finite(a + s_max * b)
    if member(0.0):
        return RobustnessResult(
            value=0.0,
            noise_witness=sigma,
            free_witness=rho,
            method="ray-bisection",
            iterations=0,
            bracket_width=0.0,
        )
    flags = scan()
    evals = 1 + len(flags)
    if not any(flags):
        return RobustnessResult(
            value=math.inf,
            noise_witness=sigma,
            free_witness=None,
            method="ray-bisection",
            iterations=evals,
            bracket_width=math.inf,
        )
    first_true = flags.index(True)
    lo, hi = grid[first_true], grid[first_true + 1]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # bracket at float resolution; tol is below it
            break
        evals += 1
        if member(mid):
            hi = mid
        else:
            lo = mid
    return RobustnessResult(
        value=hi,
        noise_witness=sigma,
        free_witness=mix(hi),
        method="ray-bisection",
        iterations=evals,
        bracket_width=hi - lo,
    )


def _min_scaling_values(rot: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Least s >= 0 with rho <= (1+s) sigma, given rho in sigma's eigenbasis.

    ``w`` holds the eigenvalues of sigma (columns of V), shape (..., d), and
    ``rot`` the matrix V^dag rho V, shape (..., d, d).  The support of sigma
    is its eigenvalues >= _SUPPORT_MIN and its kernel those <= _KERNEL_MAX;
    one strictly between raises IllConditionedError rather than guessing
    the rank.  If the weight of rho outside the support exceeds
    ``TOLS.support_leak``, supp(rho) is not inside supp(sigma) and the
    value is inf; otherwise it is max(0, lambda_max(D R D) - 1) with D the
    diagonal inverse square root on the support, from one stacked eigvalsh.
    """
    bad = (w > _KERNEL_MAX) & (w < _SUPPORT_MIN)
    if bad.any():
        raise IllConditionedError(
            f"eigenvalue {w[bad][0]:.3e} falls in the ambiguous band "
            f"({_KERNEL_MAX:.1e}, {_SUPPORT_MIN:.1e}); cannot decide the support rank"
        )
    keep = w >= _SUPPORT_MIN
    diag = np.diagonal(rot, axis1=-2, axis2=-1).real
    d = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    lam = np.linalg.eigvalsh(d[..., :, None] * rot * d[..., None, :])[..., -1]
    leak = 1.0 - np.where(keep, diag, 0.0).sum(axis=-1)
    return np.where(leak > TOLS.support_leak, math.inf, np.maximum(0.0, lam - 1.0))


def min_scaling_robustness(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Least s >= 0 with rho <= (1+s) sigma, or inf if unsupported.

    If the support of rho is not contained in the support of sigma no
    finite scaling works and the value is inf.  Otherwise the answer is
    max(0, lambda_max(S rho S) - 1) with S the support inverse square
    root of sigma, evaluated in sigma's eigenbasis.  An eigenvalue of sigma
    too close to the support cutoff raises IllConditionedError.

    The eigenvalues of sigma come from a numerical eigensolve, so near a
    singular sigma the relative error grows like eps/lambda_min, with
    lambda_min the least eigenvalue on the support: against a 40-digit
    reference it reached 1e-11 for Bell-diagonal axis states with
    1 - |k| >= 1e-5 and 2e-10 with 1 - |k| >= 1e-6.  The axis optimizer
    does not have this error, since it uses the exact eigenvalues of its
    pencils.
    """
    _require_same_dims(rho, sigma)
    w, v = np.linalg.eigh(require_hermitian(sigma.mat))
    rot = v.conj().T @ rho.mat @ v
    rot = 0.5 * (rot + rot.conj().T)  # hermitianize rounding noise before eigvalsh
    return float(_min_scaling_values(rot, w))


# --- discord robustness over Bell-diagonal states ---------------------------

_BELL = np.column_stack(bell_state_vectors()).real  # Bell kets as columns


def discord_robustness_axis_opt(
    c: BellDiagonalParams | tuple[float, float, float],
    grid: int = 64,
) -> RobustnessResult:
    """Discord robustness of a Bell-diagonal state by direct optimization.

    Minimizes :func:`min_scaling_robustness` against the axis family
    (1/4)(1x1 + k sigma_a x sigma_a) over the axis a and k in [-1, 1]: the
    plain-float search :func:`bds.discord_axis_search` (a ``grid``-point
    scan, then zoom rounds to brackets 1e-9 wide in k) gives the value,
    method, iterations and bracket, and the witnesses are built here as
    matrices from its Bell weights.  rho and every pencil are diagonal in
    the Bell basis, so there is no eigensolve.  ``grid`` must be an integer
    in [2, bds.MAX_AXIS_GRID] (ValidationError otherwise).

    A value of 0 has rho itself as the free witness and no noise witness:
    a rho with at most one nonzero correlation is itself an axis state and
    is answered before any scan, with 0 iterations and a bracket of width 0.
    """
    c = _params(c)
    found = discord_axis_search(c, grid)
    if found.free_weights is None:
        free, noise = bell_diagonal(c), None
    else:
        free = DensityMatrix((_BELL * found.free_weights) @ _BELL.T, (2, 2), validate=False)
        noise = DensityMatrix((_BELL * found.noise_weights) @ _BELL.T, (2, 2), validate=False)
    return RobustnessResult(
        value=found.value,
        noise_witness=noise,
        free_witness=free,
        method=found.method,
        iterations=found.iterations,
        bracket_width=found.bracket_width,
    )


def discord_filtered_measure(rho: DensityMatrix) -> float:
    """Middle singular value of the two-qubit correlation matrix.

    On Bell-diagonal states this is the exact discord robustness; on
    general states it is the value of the locally filtered state (local
    Bloch vectors removed).
    """
    sv = np.linalg.svd(bloch_decompose(rho).T, compute_uv=False)
    return float(np.sort(sv)[1])


def discord_robustness_bounds(rho: DensityMatrix) -> tuple[float, float]:
    """Two-sided bounds on discord robustness for any two-qubit state.

    :func:`discord_filtered_measure` gives the value of the locally
    filtered state; that state sits within max(|x|, |y|) of the input in
    trace norm, and the measure moves at most 4 times that distance.
    """
    middle = discord_filtered_measure(rho)
    b = bloch_decompose(rho)
    m = max(float(np.linalg.norm(b.x)), float(np.linalg.norm(b.y)))
    return (max(0.0, middle - 4.0 * m), middle + 4.0 * m)


# --- Lipschitz constants -----------------------------------------------------


def lipschitz_from_kappa_ball(sigma0: DensityMatrix, kappa: float) -> LipschitzConstant:
    """Constant (1 - lambda_min(sigma0))/kappa from a free ball of radius
    kappa around sigma0 (valid for star-convex free sets containing it).

    The ratio it bounds is |R(rho1) - R(rho2)| / ||rho1 - rho2||_1 in the
    full trace norm.  The oracles' kappa are not the largest trace-norm
    radii: 1/sqrt(12) for ``ppt`` is the Gurvits-Barnum Frobenius radius
    and 1/4 for ``unfaithful`` the operator-norm radius, which give
    sqrt(27/4) = 2.598 and 3 around 1/4.  The largest trace-norm radii,
    sqrt(2) - 1 and 1/2, would give 1.81 and 1.5, below the exact
    constants 1 + sqrt(2) and 2 of the rays toward 1/4: the formula holds
    here only with the smaller radii.
    """
    kappa = check_real("kappa", kappa, 0.0)
    lam = float(np.linalg.eigvalsh(sigma0.mat)[0])
    return LipschitzConstant(
        L=(1.0 - lam) / kappa,
        provenance=f"kappa-ball(lambda_min={lam:.9g}, kappa={kappa:.9g})",
    )


def bound_from_kappa_ball(sigma0: DensityMatrix, kappa: float) -> float:
    """Uniform robustness bound 2L - 1, with L = (1 - lambda_min(sigma0))/kappa
    the constant of :func:`lipschitz_from_kappa_ball`, under the same
    hypotheses."""
    return 2.0 * lipschitz_from_kappa_ball(sigma0, kappa).L - 1.0


def lipschitz_teleport(d: int) -> LipschitzConstant:
    """Constant d + 1 for the robustness of teleportability on d x d: the
    kappa-ball constant at the center 1/d^2 and radius (d-1)/d^2, that is
    (1 - 1/d^2)/((d-1)/d^2), in closed form rather than through the
    d^2 x d^2 eigensolve of :func:`lipschitz_from_kappa_ball`.  The bound
    of :func:`bound_from_kappa_ball` there is 2d + 1."""
    d = check_count("d", d, least=2)
    return LipschitzConstant(L=float(d + 1), provenance=f"teleport(d={d})")

