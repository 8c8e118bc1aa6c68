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
    BELL_SIGNS,
    BellDiagonalParams,
    discord_levelset_grid,
    discord_robustness_bds,
)
from .config import TOLS, check_count, check_real, ray_options
from .errors import (
    IllConditionedError,
    StarConvexityViolationError,
    ValidationError,
)
from .operator_core import _require_finite, require_hermitian
from .qstates import DensityMatrix, bell_diagonal, bell_state_vectors, bloch_decompose

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
    if rho.dims != sigma.dims:
        raise ValidationError(f"dims mismatch: {rho.dims} vs {sigma.dims}")
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


# sigma's support is its eigenvalues >= _SUPPORT_MIN and its kernel those
# <= _KERNEL_MAX; one strictly between leaves the rank undecided
_KERNEL_MAX = TOLS.support_cutoff / 10.0
_SUPPORT_MIN = TOLS.support_cutoff * 10.0


def _min_scaling_values(rot: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Least s >= 0 with rho <= (1+s) sigma, given rho in sigma's eigenbasis.

    ``w`` holds the eigenvalues of sigma (columns of V), shape (..., d).
    ``rot`` is either the matrix V^dag rho V, shape (..., d, d), or -- for a
    rho that commutes with sigma -- rho's eigenvalues on those eigenvectors,
    shape (..., d) in the order of ``w``; the two arrays broadcast and have
    the same number of leading axes.  The support of sigma is its
    eigenvalues >= _SUPPORT_MIN and its kernel those <= _KERNEL_MAX; one
    strictly between raises IllConditionedError rather than guessing the
    rank.  If the weight of rho outside the support exceeds
    ``TOLS.support_leak``, supp(rho) is not inside supp(sigma) and the
    value is inf; otherwise it is max(0, lambda_max(D R D) - 1) with D the
    diagonal inverse square root on the support: one stacked eigvalsh for
    the matrix form, and the largest ratio mu_i/w_i over the support (0 on
    the kernel, as D R D has) for the commuting form.
    """
    bad = (w > _KERNEL_MAX) & (w < _SUPPORT_MIN)
    if bad.any():
        raise IllConditionedError(
            f"eigenvalue {w[bad][0]:.3e} falls in the ambiguous band "
            f"({_KERNEL_MAX:.1e}, {_SUPPORT_MIN:.1e}); cannot decide the support rank"
        )
    keep = w >= _SUPPORT_MIN
    if rot.ndim == w.ndim:  # the spectrum of a rho commuting with sigma
        diag = rot
        lam = np.where(keep, rot / np.where(keep, w, 1.0), 0.0).max(axis=-1)
    else:
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
    if rho.dims != sigma.dims:
        raise ValidationError(f"dims mismatch: {rho.dims} vs {sigma.dims}")
    w, v = np.linalg.eigh(require_hermitian(sigma.mat))
    rot = v.conj().T @ rho.mat @ v
    rot = 0.5 * (rot + rot.conj().T)  # hermitianize rounding noise before eigvalsh
    return float(_min_scaling_values(rot, w))


# --- discord robustness over Bell-diagonal states ---------------------------

# sigma_a(k) = (1 + k sigma_a x sigma_a)/4 is diagonal in the Bell basis, with
# the eigenvalue (1 + k S_ai)/4 on Bell state i (S = BELL_SIGNS, row a)
_AXIS_SIGNS = np.array(BELL_SIGNS)
_BELL = np.column_stack(bell_state_vectors()).real  # Bell kets as columns
_ZOOM_STEPS = np.linspace(0.0, 1.0, 33)  # bracket fractions of every zoom round
_ZOOM_ROUNDS = 64  # hard bound on zoom rounds
_ZOOM_XATOL = 1e-9  # zooming stops once every bracket in k is this narrow
# the grid scan evaluates 3*grid pencils in one batch
MAX_AXIS_GRID = 10_000


def _axis_pencil_values(p: tuple[float, ...], ks: np.ndarray) -> np.ndarray:
    """min_scaling_robustness(rho, sigma_a(k)) for every axis a and
    every k in row a of ``ks`` (shape (3, n)), given the Bell weights
    p = c.weights() of a Bell-diagonal rho.

    rho and every sigma_a(k) are diagonal in the Bell basis, with the
    eigenvalues p_i and (1 + k S_ai)/4 on Bell state i, so all 3n values
    are one batched call of the min-scaling evaluator in its commuting
    form: arithmetic only, no eigensolve."""
    w = 0.25 * (1.0 + ks[:, :, None] * _AXIS_SIGNS[:, None, :])  # (3, n, 4)
    return _min_scaling_values(np.reshape(p, (1, 1, 4)), w)


def _axis_grid(lo: np.ndarray, hi: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Points lo + (hi - lo) * steps for every axis, shape (3, len(steps)).

    A point whose vanishing support weight (1 - |k|)/4 would fall below
    _SUPPORT_MIN (that is, 1 - |k| < 40*cutoff) snaps to k = +-1, so the
    min-scaling evaluator can decide the support rank at every point."""
    ks = lo[:, None] + (hi - lo)[:, None] * steps
    near_edge = 0.25 * (1.0 - np.abs(ks)) < _SUPPORT_MIN
    return np.where(near_edge, np.sign(ks), ks)


def discord_robustness_axis_opt(
    c: BellDiagonalParams | tuple[float, float, float],
    grid: int = 64,
) -> RobustnessResult:
    """Discord robustness of a Bell-diagonal state by direct optimization.

    Minimizes :func:`min_scaling_robustness` against the axis family
    (1/4)(1x1 + k sigma_a x sigma_a) over the axis a and k in [-1, 1].
    Each per-axis objective is a maximum of terms 4 p_i/(1 + k S_ai), hence
    convex in k, so the neighbours of the best point always bracket the
    optimum: a ``grid``-point scan is followed by zoom rounds into those
    brackets until every bracket is at most _ZOOM_XATOL = 1e-9 wide or
    stops narrowing (at most _ZOOM_ROUNDS rounds).  rho and every pencil are
    diagonal in the Bell basis, rho with the Bell weights p = c.weights()
    as eigenvalues, so there is no eigenbasis and no eigensolve: every
    round evaluates all three axes with arithmetic through the
    min-scaling evaluator.  Ties between axes resolve to the lowest axis
    index, making witnesses deterministic.  ``grid`` must be an integer
    in [2, MAX_AXIS_GRID] (ValidationError otherwise).

    A rho with at most one nonzero correlation is itself an axis state, so
    it is free: value exactly 0, rho as the free witness, no evaluation
    and a bracket of width 0 (axis 1 when every correlation is 0).  The
    test is for exact zeros, so a genuine value of 1e-11 still goes
    through the scan.
    """
    if not isinstance(c, BellDiagonalParams):
        c = BellDiagonalParams(*c)
    grid = check_count("grid", grid, least=2, most=MAX_AXIS_GRID)
    on_axis = [a for a, ca in enumerate(c.as_tuple()) if ca != 0.0]
    if len(on_axis) <= 1:  # rho is itself the axis state sigma_a(c_a)
        return RobustnessResult(
            value=0.0,
            noise_witness=None,
            free_witness=bell_diagonal(c),
            method=f"axis-opt[a={on_axis[0] + 1 if on_axis else 1}]",
            iterations=0,
            bracket_width=0.0,
        )
    p = c.weights()
    axes = np.arange(3)
    lo = hi = np.full(3, math.nan)  # no bracket before the grid scan
    ks = _axis_grid(np.full(3, -1.0), np.ones(3), np.linspace(0.0, 1.0, grid))
    vals_best = np.full(3, math.inf)
    ks_best = np.zeros(3)
    evals = 0
    for _ in range(_ZOOM_ROUNDS + 1):
        vals = _axis_pencil_values(p, ks)
        evals += vals.size
        i = vals.argmin(axis=1)
        v, k = vals[axes, i], ks[axes, i]
        better = v < vals_best
        vals_best = np.where(better, v, vals_best)
        ks_best = np.where(better, k, ks_best)
        # the nearest distinct neighbours of the best point bracket the
        # optimum (points snapped to +-1 repeat)
        below = np.where(ks < k[:, None], ks, -math.inf).max(axis=1)
        above = np.where(ks > k[:, None], ks, math.inf).min(axis=1)
        new_lo = np.where(np.isfinite(below), below, k)
        new_hi = np.where(np.isfinite(above), above, k)
        # a zoom round that returns its own bracket would repeat forever
        # (all inner points snapped to +-1, or the bracket is at float
        # resolution), so that axis is as narrow as it gets
        done = (new_hi - new_lo <= _ZOOM_XATOL) | ((new_lo == lo) & (new_hi == hi))
        lo, hi = new_lo, new_hi
        if done.all():
            break
        ks = _axis_grid(lo, hi, _ZOOM_STEPS)
    best_axis = int(vals_best.argmin())  # first minimum: lowest axis on ties
    best_val = float(vals_best[best_axis])
    best_k = float(ks_best[best_axis])
    width = float(hi[best_axis] - lo[best_axis])
    if best_val > 0.0:
        # The noise witness ((1+v) sigma - rho)/v is Bell diagonal with the
        # weights w + d/v, d = w - p.  Formed from w and p, rounding divided
        # by a small v left eigenvalues down to -4e-6.  So d comes from the
        # correlations of rho - sigma (c_a - k is exact near k) and v from d
        # (the value, to rounding), which keeps every weight >= 0 to
        # rounding; a d with no positive v means the value itself is
        # rounding (sigma's weights are rho's).
        e = list(c.as_tuple())
        e[best_axis] -= best_k
        d = [-0.25 * (e[0] * s1 + e[1] * s2 + e[2] * s3) for s1, s2, s3 in zip(*BELL_SIGNS)]
        w = [0.25 * (1.0 + best_k * s) for s in BELL_SIGNS[best_axis]]
        v_exact = max(-di / wi for di, wi in zip(d, w) if wi >= _SUPPORT_MIN)
        if v_exact > 0.0:
            tau_w = [wi + di / v_exact for di, wi in zip(d, w)]
        else:
            best_val = 0.0
    if best_val <= 0.0:
        return RobustnessResult(
            value=0.0,
            noise_witness=None,
            free_witness=bell_diagonal(c),
            method=f"axis-opt[a={best_axis + 1}]",
            iterations=evals,
            bracket_width=width,
        )
    tau = DensityMatrix((_BELL * tau_w) @ _BELL.T, (2, 2), validate=False)
    sigma = DensityMatrix((_BELL * w) @ _BELL.T, (2, 2), validate=False)
    return RobustnessResult(
        value=best_val,
        noise_witness=tau,
        free_witness=sigma,
        method=f"axis-opt[a={best_axis + 1},k={best_k:.6g}]",
        iterations=evals,
        bracket_width=width,
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

