"""Membership oracles for the free sets the robustness engines run against.

Each oracle bundles a name, a boolean membership test, an optional star
center (a state from which mixing toward any member stays in the set), the
radius ``kappa`` of a known free ball around that center when one exists,
and a sampler of members used by the audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bds import discord_weight_free
from .config import TOLS, check_count, check_real
from .errors import ConfigurationError, ValidationError
from .operator_core import _partial_transpose
from .qstates import (
    BellDiagonalParams,
    DensityMatrix,
    _rng,
    bell_diagonal,
    bell_state_vectors,
    bloch_decompose,
    maximally_mixed,
    random_density,
    random_unitary,
)

__all__ = [
    "FreeSetOracle",
    "is_ppt",
    "discord_defect",
    "has_zero_discord",
    "separable_ball_radius",
    "teleportation_ball_radius",
    "singlet_fraction",
    "is_unfaithful",
    "bds_params_of",
    "oracle_by_name",
    "sample_trace_ball",
    "random_quantum_classical",
]


@dataclass(frozen=True)
class FreeSetOracle:
    """A named free set: membership test plus optional geometry metadata.

    ``lmi``, when given, is a tuple (L, tol) that states the set as one
    linear matrix inequality: a callable L maps a state to a Hermitian
    matrix, is affine on states (so L((rho + s sigma)/(1+s)) = (L(rho) + s L(sigma))/(1+s)),
    and member(rho) holds exactly when lambda_min(L(rho)) >= -tol, a finite
    tol >= 0 (ValidationError otherwise).  ``robustness_along_ray`` then
    probes the pencil L(rho) + s L(sigma) instead of calling ``member`` on
    rebuilt mixtures.  Such a set is convex, so its free mixtures along any
    ray form an interval, with no monotone-scan check to keep.
    """

    name: str
    member: Callable[[DensityMatrix], bool]
    star_center: Optional[DensityMatrix] = None
    kappa: Optional[float] = None
    sampler: Optional[Callable[[np.random.Generator], DensityMatrix]] = None
    lmi: Optional[tuple[Callable[[DensityMatrix], np.ndarray], float]] = None

    def __post_init__(self):
        if self.lmi is not None:  # the ray's Weyl bracket needs a finite tol >= 0
            if not (isinstance(self.lmi, tuple) and len(self.lmi) == 2 and callable(self.lmi[0])):
                raise ValidationError(f"lmi must be a pair (L, tol), L callable, got {self.lmi!r}")
            to_matrix, tol = self.lmi
            tol = check_real("lmi tolerance", tol, 0.0, ends="[)")
            object.__setattr__(self, "lmi", (to_matrix, tol))
        if self.star_center is not None and not self.member(self.star_center):
            raise ConfigurationError(
                f"star center of oracle {self.name!r} is not a member of the set"
            )


def _lmi_member(rho: DensityMatrix, lmi: tuple[Callable, float]) -> bool:
    """lambda_min(L(rho)) >= -tol for the pair (L, tol) of an oracle's
    ``lmi`` field: the membership rule that ``robustness_along_ray`` applies
    to the same map."""
    to_matrix, tol = lmi
    return float(np.linalg.eigvalsh(to_matrix(rho))[0]) >= -tol


def _partial_transpose_b(rho: DensityMatrix) -> np.ndarray:
    """rho^T_B from the state's own array, through the index permutation
    that ``operator_core.partial_transpose`` shares, with no re-validation,
    since ``DensityMatrix`` fixed its shape and dims."""
    if len(rho.dims) != 2:
        raise ValidationError(f"PPT needs a bipartite state, got dims {rho.dims}")
    return _partial_transpose(rho.mat, *rho.dims, 1)


def is_ppt(rho: DensityMatrix) -> bool:
    """Positive partial transpose test (Peres, PRL 77, 1413 (1996);
    separability for two qubits): lambda_min(rho^T_B) >= -TOLS.ppt, the
    linear matrix inequality of the ``ppt`` oracle."""
    return _lmi_member(rho, _PPT_LMI)


_PPT_LMI = (_partial_transpose_b, TOLS.ppt)


def _discord_weights(rho: DensityMatrix) -> tuple[float, float]:
    """(|y|^2 + |T|_F^2, lambda_max(y y^T + T^T T)) of a two-qubit state."""
    b = bloch_decompose(rho)
    gram = np.outer(b.y, b.y) + b.T.T @ b.T
    return float(b.y @ b.y + np.sum(b.T * b.T)), float(np.linalg.eigvalsh(gram)[-1])


def discord_defect(rho: DensityMatrix) -> float:
    """Zero-discord defect |y|^2 + |T|_F^2 - lambda_max(y y^T + T^T T).

    Vanishes exactly on the quantum-classical states
    sum_i p_i rho_i x |psi_i><psi_i| (orthonormal psi_i on side B, where
    the measurement acts) and is strictly positive otherwise.  Structurally
    >= 0 up to rounding, and invariant under local unitaries on either side.
    """
    total, allowed = _discord_weights(rho)
    return total - allowed


def has_zero_discord(rho: DensityMatrix) -> bool:
    """Whether [y | T^T] has rank <= 1 (Dakic, Vedral & Brukner, PRL 105,
    190502 (2010)): a defect at most TOLS.discord_membership of |y|^2 +
    |T|_F^2.  Both scale by 1/(1+s)^2 toward the star kernel {sigma_A x 1/2},
    so the ray there is exactly 0 or inf; ``bds-axes`` shares the rule."""
    return discord_weight_free(*_discord_weights(rho))


def separable_ball_radius(d_a: int = 2, d_b: int = 2) -> float:
    """Radius 1/sqrt(D(D-1)) of the Gurvits-Barnum ball of separable states
    around 1/D, D = d_a d_b; ``d_a`` and ``d_b`` must be integers >= 2
    (ValidationError otherwise).

    The radius is a Frobenius-norm one.  Since ||X||_2 <= ||X||_1, the
    trace-norm ball of the same radius lies inside it, so it is also a
    trace-norm radius, but not the largest: for two qubits the largest
    trace-norm ball around 1/4 inside PPT has radius sqrt(2) - 1, against
    1/sqrt(12) = 0.289 here (see :func:`robustlab.engines.lipschitz_from_kappa_ball`)."""
    d = check_count("d_a", d_a, least=2) * check_count("d_b", d_b, least=2)
    return 1.0 / math.sqrt(d * (d - 1))


def teleportation_ball_radius(d: int = 2) -> float:
    """Radius (d-1)/d^2 of the teleportation-unfaithful ball around 1/d^2;
    ``d`` must be an integer >= 2 (ValidationError otherwise).

    The radius is the largest one in operator norm: the singlet fraction of
    1/d^2 + X is at most 1/d^2 + lambda_max(X).  It is also a Frobenius and
    a trace-norm radius, but not the largest trace-norm one: for a
    traceless X, lambda_max(X) <= ||X||_1/2, which gives 2(d-1)/d^2, that
    is 1/2 for two qubits against 1/4 here."""
    d = check_count("d", d, least=2)
    return (d - 1) / float(d * d)


def bds_params_of(rho: DensityMatrix) -> BellDiagonalParams | None:
    """Return the (c1, c2, c3) triple if rho is Bell diagonal, else None:
    |x|, |y| and the off-diagonal |T_ij| at most ``TOLS.bds_detect``."""
    if rho.dims != (2, 2):
        return None
    b = bloch_decompose(rho)
    off = b.T - np.diag(np.diagonal(b.T))
    if max(np.max(np.abs(b.x)), np.max(np.abs(b.y)), np.max(np.abs(off))) > TOLS.bds_detect:
        return None
    return BellDiagonalParams(b.T[0, 0], b.T[1, 1], b.T[2, 2])


# --- fully entangled fraction -----------------------------------------------

# Magic basis (phi+, i phi-, i psi+, psi-) as columns.  Every maximally
# entangled two-qubit state is a global phase times a real unit vector in it.
_MAGIC = np.column_stack(
    [v * phase for v, phase in zip(bell_state_vectors(), (1.0, 1j, 1j, 1.0))]
)
_MAGIC_H = _MAGIC.conj().T  # its conjugate transpose, rho_M = _MAGIC_H rho _MAGIC
_HALF_I4 = 0.5 * np.eye(4)


def _magic_real(rho: DensityMatrix) -> np.ndarray:
    """Re rho_M, with rho_M = rho written in the magic basis."""
    if rho.dims != (2, 2):
        raise ValidationError("singlet fraction implemented for dims (2, 2) only")
    return (_MAGIC_H @ rho.mat @ _MAGIC).real


def singlet_fraction(rho: DensityMatrix) -> float:
    """Fully entangled fraction: the maximal overlap with a maximally
    entangled state.

    Exact closed form lambda_max(Re rho_M), where rho_M is rho written in
    the magic basis (Hill & Wootters, PRL 78, 5022 (1997); Grondalski,
    Etlinger & James, Phys. Lett. A 300, 573 (2002)): the overlap with the
    state of real magic-basis coefficients x is x^T (Re rho_M) x.
    """
    return float(np.linalg.eigvalsh(_magic_real(rho))[-1])


def _unfaithful_matrix(rho: DensityMatrix) -> np.ndarray:
    """1/2 - Re rho_M, which is positive semidefinite exactly when the
    singlet fraction is at most 1/2; affine on states, as the ``lmi``
    field asks."""
    return _HALF_I4 - _magic_real(rho)


def is_unfaithful(rho: DensityMatrix) -> bool:
    """Whether no local strategy pushes the Bell overlap above 1/d.

    Exact for every two-qubit state, since :func:`singlet_fraction` is:
    the test is the linear matrix inequality lambda_min(1/2 - Re rho_M)
    >= -``TOLS.unfaithful_margin`` of the ``unfaithful`` oracle, a
    one-sided slack above 1/d.
    """
    return _lmi_member(rho, _UNFAITHFUL_LMI)


_UNFAITHFUL_LMI = (_unfaithful_matrix, TOLS.unfaithful_margin)


# --- member samplers ---------------------------------------------------------


# sample_trace_ball gives up after this many draws outside the positive cone
_BALL_DRAWS = 1000


def sample_trace_ball(
    center: DensityMatrix, radius: float, rng: np.random.Generator | int
) -> DensityMatrix:
    """Random state in the trace-norm ball of given radius around ``center``.

    Draws a random traceless Hermitian direction, normalizes it to unit
    trace norm, and scales by a radius biased toward the ball surface
    (where membership claims are hardest).  Rejects the draws that leave
    the positive cone, which are rare while the radius is small against
    lambda_min of the center.  ``rng`` must be a Generator or an integer
    seed >= 0, ``radius`` finite and >= 0, and ``center`` of dimension
    >= 2: a one-level state has no traceless direction; if all of
    _BALL_DRAWS = 1000 draws leave the cone, the radius is too large for
    this center (ValidationError in each case).
    """
    rng = _rng(rng)
    radius = check_real("radius", radius, 0.0, ends="[)")
    d = center.dim
    if d < 2:
        raise ValidationError(f"trace-ball center must have dimension >= 2, got {d}")
    n_dof = d * d - 1
    for _ in range(_BALL_DRAWS):
        x = rng.standard_normal((2, d, d))
        g = x[0] + 1j * x[1]
        h = (g + g.conj().T) / 2.0
        h -= np.eye(d) * (h.trace().real / d)
        # h is Hermitian by construction: its trace norm needs no validation
        h /= np.sum(np.abs(np.linalg.eigvalsh(h)))
        r = radius * rng.uniform() ** (1.0 / n_dof)
        mat = center.mat + r * h
        if float(np.linalg.eigvalsh(mat)[0]) >= 0.0:
            return DensityMatrix(mat, center.dims, validate=False)
    lam = float(np.linalg.eigvalsh(center.mat)[0])
    raise ValidationError(
        f"trace-ball radius {radius!r} is too large for a center with lambda_min = "
        f"{lam:.3e}: all {_BALL_DRAWS} draws left the positive cone"
    )


def random_quantum_classical(rng: np.random.Generator | int) -> DensityMatrix:
    """Random zero-discord state sum_i p_i rho_i x |psi_i><psi_i|.

    Random weights, random single-qubit states on A, random orthonormal
    measurement basis on B.  ``rng`` is a Generator or an integer seed
    >= 0 (ValidationError otherwise).
    """
    rng = _rng(rng)
    p = rng.dirichlet((1.0, 1.0))
    v = random_unitary(2, rng)
    mat = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        rho_a = random_density(2, rank=2, seed=rng)
        ket = v[:, i]
        mat += p[i] * np.kron(rho_a.mat, np.outer(ket, ket.conj()))
    return DensityMatrix(mat, (2, 2), validate=False)


def _sample_ppt(rng: np.random.Generator) -> DensityMatrix:
    for _ in range(10000):
        rho = random_density(4, rank=4, seed=rng)
        if is_ppt(rho):
            return rho
    raise ConfigurationError("rejection sampler found no PPT state")


def _sample_bds_axes(rng: np.random.Generator) -> DensityMatrix:
    axis = int(rng.integers(0, 3))
    c = [0.0, 0.0, 0.0]
    c[axis] = float(rng.uniform(-1.0, 1.0))
    return bell_diagonal(BellDiagonalParams(*c))


# --- oracles by name ---------------------------------------------------------


def _in_bds_axes(rho: DensityMatrix) -> bool:
    """``has_zero_discord``'s rule on |x|^2 + |y|^2 + |T|_F^2, max_i T_ii^2
    allowed; a state that is not two-qubit raises ValidationError."""
    b = bloch_decompose(rho)
    total = float(b.x @ b.x + b.y @ b.y + np.sum(b.T * b.T))
    return discord_weight_free(total, float(np.max(np.diagonal(b.T) ** 2)))


_FREE_SETS = ("bds-axes", "ppt", "unfaithful", "zero-discord")


def oracle_by_name(name: str) -> FreeSetOracle:
    """A fresh oracle for one of the built-in two-qubit free sets, each with
    star center 1/4:

    - ``ppt``: states with positive partial transpose, with the
      separable-ball radius as ``kappa``;
    - ``zero-discord``: quantum-classical states (measurement side B), with
      no ball around 1/4 (``kappa`` None); 1/4 lies in its star kernel, so
      its ray toward 1/4 is exactly 0 or inf (see :func:`has_zero_discord`);
    - ``unfaithful``: teleportation-unfaithful states (maximal Bell overlap
      <= 1/2, exact, see :func:`is_unfaithful`), with the teleportation
      ball radius as ``kappa``;
    - ``bds-axes``: Bell-diagonal states with at most one nonzero c_i, by
      the rule and tolerance of ``zero-discord``, so the two agree on that
      family and this ray toward 1/4 is exactly 0 or inf too; ``kappa`` None.

    Membership tests are read from this module at call time, so an oracle
    built after ``is_ppt``, ``has_zero_discord`` or ``is_unfaithful`` is
    rebound calls the new binding.  Any other name raises ConfigurationError.
    """
    if name not in _FREE_SETS:
        raise ConfigurationError(f"unknown free set {name!r}; choose from {list(_FREE_SETS)}")
    center = maximally_mixed()
    if name == "ppt":
        return FreeSetOracle(
            name, is_ppt, center, separable_ball_radius(2, 2), _sample_ppt, lmi=_PPT_LMI
        )
    if name == "zero-discord":
        return FreeSetOracle(name, has_zero_discord, center, sampler=random_quantum_classical)
    if name == "unfaithful":
        kappa = teleportation_ball_radius(2)
        return FreeSetOracle(
            name, is_unfaithful, center, kappa,
            lambda rng: sample_trace_ball(center, kappa, rng), lmi=_UNFAITHFUL_LMI,
        )
    return FreeSetOracle(name, _in_bds_axes, center, sampler=_sample_bds_axes)
