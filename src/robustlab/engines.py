"""Robustness engines and Lipschitz-constant constructors.

Two complementary computations:

* ``robustness_along_ray`` mixes the input with one fixed noise state and
  bisects for the first free mixture.  Sound whenever membership along the
  ray is monotone (guaranteed if the free set is star-convex with respect
  to the noise state); non-monotone feasibility is detected and raised.
* ``min_scaling_robustness`` evaluates, for a fixed candidate free state
  sigma, the least s with rho <= (1+s) sigma; optimizing it over a free
  family gives the global robustness restricted to that family.

Values use ``math.inf`` for unreachable configurations; no finite
sentinels are ever returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import TOLS, resolve
from .errors import IllConditionedError, StarConvexityViolationError, ValidationError
from .free_sets import FreeSetOracle
from .operator_core import kron, support_inv_sqrt
from .qstates import PAULI, BellDiagonalParams, DensityMatrix, bell_diagonal, bloch_decompose

__all__ = [
    "RobustnessResult",
    "LipschitzConstant",
    "robustness_along_ray",
    "min_scaling_robustness",
    "discord_robustness_bds",
    "discord_robustness_axis_opt",
    "discord_robustness_bounds",
    "discord_levelset_grid",
    "lipschitz_from_kappa_ball",
    "bound_from_kappa_ball",
    "lipschitz_full_rank",
    "lipschitz_separable",
    "lipschitz_teleport",
    "teleport_robustness_bound",
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


def robustness_along_ray(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    oracle: FreeSetOracle,
    s_max: float | None = None,
    tol: float | None = None,
    scan_points: int = 8,
) -> RobustnessResult:
    """Least s >= 0 with (rho + s sigma)/(1+s) in the oracle's set.

    A coarse scan first tightens the bracket and checks that membership is
    monotone along the ray; a non-monotone pattern raises
    StarConvexityViolationError since bisection would then be unsound.
    The returned value is the feasible end of the final bracket, so the
    free witness is always a genuine member.  ``tol`` and ``s_max`` must be
    finite and positive (ValidationError otherwise).
    """
    if rho.dims != sigma.dims:
        raise ValidationError(f"dims mismatch: {rho.dims} vs {sigma.dims}")
    tol = resolve(tol, TOLS.ray_bisection)
    s_max = 2.0 * rho.dim if s_max is None else float(s_max)
    for name, v in (("tol", tol), ("s_max", s_max)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValidationError(f"{name} must be finite and > 0, got {v!r}")
    evals = 0

    def mix(s: float) -> DensityMatrix:
        m = (rho.mat + s * sigma.mat) / (1.0 + s)
        return DensityMatrix(m, rho.dims, validate=False)

    def member(s: float) -> bool:
        nonlocal evals
        evals += 1
        return bool(oracle.member(mix(s)))

    if member(0.0):
        return RobustnessResult(
            value=0.0,
            noise_witness=sigma,
            free_witness=rho,
            method="ray-bisection",
            iterations=0,
            bracket_width=0.0,
        )

    grid = np.linspace(0.0, float(s_max), scan_points + 1)
    flags = [False] + [member(s) for s in grid[1:]]
    if any(flags[i] and not flags[i + 1] for i in range(len(flags) - 1)):
        raise StarConvexityViolationError(
            f"membership along the ray toward the noise state is not monotone "
            f"(pattern {''.join('T' if f else 'F' for f in flags)}); "
            f"the set is not star-convex with respect to this noise state"
        )
    if not flags[-1]:
        return RobustnessResult(
            value=math.inf,
            noise_witness=sigma,
            free_witness=None,
            method="ray-bisection",
            iterations=evals,
            bracket_width=math.inf,
        )
    first_true = next(i for i, f in enumerate(flags) if f)
    lo = float(grid[first_true - 1])
    hi = float(grid[first_true])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # bracket at float resolution; tol is below it
            break
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


def min_scaling_robustness(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    cutoff: float | None = None,
    leak_tol: float | None = None,
) -> float:
    """Least s >= 0 with rho <= (1+s) sigma, or inf if unsupported.

    If the support of rho is not contained in the support of sigma no
    finite scaling works and the value is inf.  Otherwise the answer is
    max(0, lambda_max(S rho S) - 1) with S the support inverse square
    root of sigma.
    """
    if rho.dims != sigma.dims:
        raise ValidationError(f"dims mismatch: {rho.dims} vs {sigma.dims}")
    leak_tol = resolve(leak_tol, TOLS.support_leak)
    s_mat, proj = support_inv_sqrt(sigma.mat, cutoff)
    leak = 1.0 - float(np.real(np.einsum("ij,ji->", proj, rho.mat)))
    if leak > leak_tol:
        return math.inf
    m = s_mat @ rho.mat @ s_mat
    m = (m + m.conj().T) / 2.0  # hermitianize rounding noise before eigvalsh
    lam = float(np.linalg.eigvalsh(m)[-1])
    return max(0.0, lam - 1.0)


# --- discord robustness over Bell-diagonal states ---------------------------

_AXIS_KRON = tuple(kron(s, s) for s in PAULI)
_EYE4 = np.eye(4, dtype=complex)

# sigma_a(k) = (1 + k sigma_a x sigma_a)/4 is an affine pencil in k: its
# eigenvectors (columns of _AXIS_VECS[a], real since sigma_y x sigma_y is)
# do not depend on k, and its eigenvalues are (1 + k _AXIS_SIGNS[a])/4 with
# signs exactly +-1 (sigma_a x sigma_a squares to the identity).
_AXIS_SIGNS, _AXIS_VECS = np.linalg.eigh(np.stack([m.real for m in _AXIS_KRON]))
_AXIS_SIGNS = np.rint(_AXIS_SIGNS)
_ZOOM_STEPS = np.linspace(0.0, 1.0, 33)  # bracket fractions of every zoom round
_ZOOM_ROUNDS = 64  # hard bound on zoom rounds


def _axis_state(axis: int, k: float) -> DensityMatrix:
    """Bell-diagonal state with the single correlation k on one axis."""
    mat = 0.25 * (_EYE4 + float(k) * _AXIS_KRON[axis])
    return DensityMatrix(mat, (2, 2), validate=False)


def _axis_rotations(rho: DensityMatrix) -> np.ndarray:
    """R_a = V_a^T rho V_a for the three axis pencils, shape (3, 4, 4).

    rho must be real (every Bell-diagonal state is)."""
    rot = np.einsum("aji,jk,akl->ail", _AXIS_VECS, rho.mat.real, _AXIS_VECS)
    return 0.5 * (rot + rot.transpose(0, 2, 1))


def _axis_pencil_values(rot: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """min_scaling_robustness(rho, _axis_state(a, k)) for every axis a and
    every k in row a of ``ks`` (shape (3, n)), given rot = _axis_rotations(rho).

    The scalar engine up to a similarity transform: the support weights of
    sigma are (1 + k x_a)/4, the support leak is the rotated diagonal outside
    the support, and lambda_max(S rho S) is lambda_max(D R_a D) with D the
    diagonal inverse square root on the support -- one stacked eigvalsh.
    """
    w = 0.25 * (1.0 + ks[:, :, None] * _AXIS_SIGNS[:, None, :])  # (3, n, 4)
    lo, hi = TOLS.support_cutoff / 10.0, TOLS.support_cutoff * 10.0
    bad = (w > lo) & (w < hi)
    if np.any(bad):
        raise IllConditionedError(
            f"eigenvalue {w[bad][0]:.3e} falls in the ambiguous band "
            f"({lo:.1e}, {hi:.1e}); cannot decide the support rank"
        )
    keep = w >= hi
    diag = np.diagonal(rot, axis1=1, axis2=2)[:, None, :]
    leak = 1.0 - np.sum(np.where(keep, diag, 0.0), axis=-1)
    d = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    lam = np.linalg.eigvalsh(d[..., :, None] * rot[:, None] * d[..., None, :])[..., -1]
    return np.where(leak > TOLS.support_leak, math.inf, np.maximum(0.0, lam - 1.0))


def _axis_grid(lo: np.ndarray, hi: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Points lo + (hi - lo) * steps for every axis, shape (3, len(steps)).

    A point whose vanishing support weight (1 - |k|)/4 would fall below
    10*cutoff (that is, 1 - |k| < 40*cutoff) snaps to k = +-1, so no point
    lands in the ambiguous band of the support decision."""
    ks = lo[:, None] + (hi - lo)[:, None] * steps
    near_edge = 0.25 * (1.0 - np.abs(ks)) < TOLS.support_cutoff * 10.0
    return np.where(near_edge, np.sign(ks), ks)


def discord_robustness_bds(
    c: BellDiagonalParams | tuple[float, float, float]
) -> float:
    """Closed-form discord robustness of a Bell-diagonal state.

    Equals the middle of the sorted absolute correlations, i.e.
    max over pairs of the pairwise minimum of |c_i|.
    """
    if not isinstance(c, BellDiagonalParams):
        c = BellDiagonalParams(*c)
    return float(sorted(abs(v) for v in c.as_tuple())[1])


def discord_robustness_axis_opt(
    c: BellDiagonalParams | tuple[float, float, float],
    grid: int = 64,
    xatol: float | None = None,
) -> RobustnessResult:
    """Discord robustness of a Bell-diagonal state by direct optimization.

    Minimizes :func:`min_scaling_robustness` against the axis family
    (1/4)(1x1 + k sigma_a x sigma_a) over the axis a and k in [-1, 1].
    Each per-axis objective is a maximum of terms 4 p_i/(1 + k s_i), hence
    convex in k, so the neighbours of the best point always bracket the
    optimum: a ``grid``-point scan is followed by zoom rounds into those
    brackets until every bracket is at most ``xatol`` wide or stops
    narrowing (at most _ZOOM_ROUNDS rounds).  Every round
    evaluates all three axes in one batch.  Ties between axes resolve to
    the lowest axis index, making witnesses deterministic.  ``grid`` must
    be an integer >= 2 and ``xatol`` finite and > 0 (ValidationError
    otherwise).
    """
    if not isinstance(c, BellDiagonalParams):
        c = BellDiagonalParams(*c)
    if int(grid) != grid or grid < 2:
        raise ValidationError(f"grid must be an integer >= 2, got {grid!r}")
    xatol = resolve(xatol, TOLS.axis_opt_xatol)
    if not (math.isfinite(xatol) and xatol > 0.0):
        raise ValidationError(f"xatol must be finite and > 0, got {xatol!r}")
    rho = bell_diagonal(c)
    rot = _axis_rotations(rho)
    axes = np.arange(3)
    lo = hi = np.full(3, math.nan)  # no bracket before the grid scan
    ks = _axis_grid(np.full(3, -1.0), np.ones(3), np.linspace(0.0, 1.0, int(grid)))
    vals_best = np.full(3, math.inf)
    ks_best = np.zeros(3)
    evals = 0
    for _ in range(_ZOOM_ROUNDS + 1):
        vals = _axis_pencil_values(rot, ks)
        evals += vals.size
        i = np.argmin(vals, axis=1)
        v, k = vals[axes, i], ks[axes, i]
        better = v < vals_best
        vals_best = np.where(better, v, vals_best)
        ks_best = np.where(better, k, ks_best)
        # the nearest distinct neighbours of the best point bracket the
        # optimum (points snapped to +-1 repeat)
        below = np.max(np.where(ks < k[:, None], ks, -math.inf), axis=1)
        above = np.min(np.where(ks > k[:, None], ks, math.inf), axis=1)
        new_lo = np.where(np.isfinite(below), below, k)
        new_hi = np.where(np.isfinite(above), above, k)
        # a zoom round that returns its own bracket would repeat forever
        # (all inner points snapped to +-1, or the bracket is at float
        # resolution), so that axis is as narrow as it gets
        done = (new_hi - new_lo <= xatol) | ((new_lo == lo) & (new_hi == hi))
        lo, hi = new_lo, new_hi
        if np.all(done):
            break
        ks = _axis_grid(lo, hi, _ZOOM_STEPS)
    best_axis = int(np.argmin(vals_best))  # first minimum: lowest axis on ties
    best_val = float(vals_best[best_axis])
    best_k = float(ks_best[best_axis])
    width = float(hi[best_axis] - lo[best_axis])

    if not math.isfinite(best_val):
        return RobustnessResult(
            value=math.inf,
            noise_witness=None,
            free_witness=None,
            method="axis-opt",
            iterations=evals,
            bracket_width=math.inf,
        )
    sigma = _axis_state(best_axis, best_k)
    if best_val <= 0.0:
        return RobustnessResult(
            value=0.0,
            noise_witness=None,
            free_witness=rho,
            method=f"axis-opt[a={best_axis + 1}]",
            iterations=evals,
            bracket_width=width,
        )
    tau = DensityMatrix(
        ((1.0 + best_val) * sigma.mat - rho.mat) / best_val,
        (2, 2),
        validate=False,
    )
    return RobustnessResult(
        value=best_val,
        noise_witness=tau,
        free_witness=sigma,
        method=f"axis-opt[a={best_axis + 1},k={best_k:.6g}]",
        iterations=evals,
        bracket_width=width,
    )


def discord_levelset_grid(r: float, grid: int, slack: float = 1e-12) -> np.ndarray:
    """Sample the region {discord robustness <= r} over the Bell-diagonal
    tetrahedron.

    Returns one row (c1, c2, c3, value, inside) per grid point of the
    cube [-1, 1]^3 that satisfies the four positivity inequalities, where
    value is the middle sorted absolute correlation and inside flags
    value <= r (with a small slack so exact-boundary grid points count
    as inside).
    """
    if r < 0.0:
        raise ValidationError(f"level must be nonnegative, got {r!r}")
    if grid < 2:
        raise ValidationError(f"grid must be at least 2, got {grid!r}")
    axis = np.linspace(-1.0, 1.0, int(grid))
    c = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    signs = np.array(
        [[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]]
    )
    weights = (1.0 + c @ signs.T) / 4.0
    c = c[np.min(weights, axis=1) >= -TOLS.bds_positivity]
    value = np.sort(np.abs(c), axis=1)[:, 1]
    inside = value <= r + slack
    return np.column_stack([c, value, inside.astype(float)])


def discord_robustness_bounds(rho: DensityMatrix) -> tuple[float, float]:
    """Two-sided bounds on discord robustness for any two-qubit state.

    The middle singular value of the correlation matrix gives the value of
    the locally filtered state (local Bloch vectors removed); the filtered
    state sits within max(|x|, |y|) of the input in trace norm, and the
    measure moves at most 4 times that distance.
    """
    b = bloch_decompose(rho)
    sv = np.linalg.svd(b.T, compute_uv=False)
    middle = float(np.sort(sv)[1])
    m = max(float(np.linalg.norm(b.x)), float(np.linalg.norm(b.y)))
    return (max(0.0, middle - 4.0 * m), middle + 4.0 * m)


# --- Lipschitz constants -----------------------------------------------------


def _lambda_min(sigma0: DensityMatrix) -> float:
    return float(np.linalg.eigvalsh(sigma0.mat)[0])


def lipschitz_from_kappa_ball(sigma0: DensityMatrix, kappa: float) -> LipschitzConstant:
    """Constant (1 - lambda_min(sigma0))/kappa from a free ball of radius
    kappa around sigma0 (valid for star-convex free sets containing it)."""
    if kappa <= 0:
        raise ValidationError(f"kappa must be positive, got {kappa!r}")
    lam = _lambda_min(sigma0)
    return LipschitzConstant(
        L=(1.0 - lam) / kappa,
        provenance=f"kappa-ball(lambda_min={lam:.9g}, kappa={kappa:.9g})",
    )


def bound_from_kappa_ball(sigma0: DensityMatrix, kappa: float) -> float:
    """Uniform robustness bound 2(1 - lambda_min(sigma0))/kappa - 1 under the
    same hypotheses as :func:`lipschitz_from_kappa_ball`."""
    if kappa <= 0:
        raise ValidationError(f"kappa must be positive, got {kappa!r}")
    return 2.0 * (1.0 - _lambda_min(sigma0)) / kappa - 1.0


def lipschitz_full_rank(sigma0: DensityMatrix) -> LipschitzConstant:
    """Constant 1/lambda_min(sigma0) for global robustness with a full-rank
    star center (finite on the effective domain of the measure)."""
    lam = _lambda_min(sigma0)
    if lam <= TOLS.psd:
        raise ValidationError(
            f"star center must be full rank; smallest eigenvalue {lam:.3e}"
        )
    return LipschitzConstant(
        L=1.0 / lam, provenance=f"full-rank-center(lambda_min={lam:.9g})"
    )


def lipschitz_separable(d_a: int, d_b: int) -> LipschitzConstant:
    """Constant min(d_a, d_b) - 1/2 for the absolute robustness of
    entanglement on a d_a x d_b system."""
    if d_a < 2 or d_b < 2:
        raise ValidationError("both local dimensions must be at least 2")
    return LipschitzConstant(
        L=min(int(d_a), int(d_b)) - 0.5,
        provenance=f"separable(d_a={d_a}, d_b={d_b})",
    )


def lipschitz_teleport(d: int) -> LipschitzConstant:
    """Constant d + 1 for the robustness of teleportability on d x d."""
    if d < 2:
        raise ValidationError("local dimension must be at least 2")
    return LipschitzConstant(L=float(d + 1), provenance=f"teleport(d={d})")


def teleport_robustness_bound(d: int) -> float:
    """Uniform bound 2d + 1 on the robustness of teleportability."""
    if d < 2:
        raise ValidationError("local dimension must be at least 2")
    return float(2 * d + 1)
