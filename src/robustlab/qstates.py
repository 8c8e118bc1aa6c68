"""Density matrices of one and two qubits (and up to dimension 8).

Conventions pinned here and relied on everywhere else:

* Pauli order is (x, y, z), i.e. sigma_1, sigma_2, sigma_3.
* ``bell_states()`` returns (phi_plus, phi_minus, psi_plus, psi_minus) with
  phi_pm = (|00> pm |11>)/sqrt2 and psi_pm = (|01> pm |10>)/sqrt2.  Their
  correlation matrices are diag(S_1i, S_2i, S_3i), with column i of the
  Bell sign table S = ``bds.BELL_SIGNS`` for the i-th state in that order.
* Two-qubit Bloch form: rho = (1/4)(1x1 + sum_i x_i s_i x 1
  + sum_j y_j 1 x s_j + sum_ij T_ij s_i x s_j), with x_i = tr(rho s_i x 1),
  y_j = tr(rho 1 x s_j), T_ij = tr(rho s_i x s_j).
* ``bell_diagonal(c)`` = (1/4)(1x1 + sum_i c_i s_i x s_i); its Bell-basis
  weights in the order above are p_i = (1 + sum_a S_ai c_a)/4, as returned
  by ``BellDiagonalParams.weights()``.
* ``werner(p)`` = (1-p)|psi_minus><psi_minus| + (p/4) 1x1, so p = 1 is the
  maximally mixed state and p = 0 the singlet.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bds import BELL_SIGNS, BellDiagonalParams
from .config import TOLS, check_count, check_real
from .errors import PositivityError, ValidationError
from .operator_core import _require_finite, _require_hermitian, as_complex_matrix

__all__ = [
    "PAULI",
    "DensityMatrix",
    "BlochTwoQubit",
    "BellDiagonalParams",
    "bell_state_vectors",
    "bell_states",
    "bell_diagonal",
    "werner",
    "maximally_mixed",
    "bloch_decompose",
    "bloch_compose",
    "state_inversion",
    "random_density",
    "random_unitary",
    "random_bell_diagonal",
    "trace_distance",
    "state_to_json",
    "state_from_json",
]

_I2 = np.eye(2, dtype=complex)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# precomputed tensor-product Pauli bases for fast Bloch (de)composition
_PA = np.stack([np.kron(s, _I2) for s in PAULI])         # (3, 4, 4)
_PB = np.stack([np.kron(_I2, s) for s in PAULI])         # (3, 4, 4)
_PAB = np.stack([
    np.stack([np.kron(si, sj) for sj in PAULI]) for si in PAULI
])                                                       # (3, 3, 4, 4)
_PAA = np.stack([np.kron(s, s) for s in PAULI])          # (3, 4, 4)
# For Hermitian P, Re tr(rho P) = sum_ab Re P_ab Re rho_ab + Im P_ab Im rho_ab,
# so the 15 Bloch coordinates (x, y, T row by row) are one real product of
# this table, the 15 Pauli products flattened with complex entries read as
# (re, im) float pairs, with vec(rho) read the same way
_BLOCH_TABLE = np.concatenate([_PA, _PB, _PAB.reshape(9, 4, 4)]).reshape(15, 16).view(float)
_I4 = np.eye(4, dtype=complex)


class DensityMatrix:
    """A validated density matrix with subsystem dimensions attached.

    Instances are value-like: the backing array is copied on construction
    and marked read-only.  ``validate=True`` (the default) checks that the
    entries are finite numbers, ``dims`` are integers >= 1 whose product is
    the matrix dimension, and the matrix is Hermitian with unit trace and
    no eigenvalue below ``-TOLS.psd`` (ValidationError or PositivityError).

    ``validate=False`` is reserved for internal constructors whose output
    is a state by construction, and still copies the array and makes two
    checks: that its shape is (n, n) with n the product of ``dims``, and
    that every entry is finite (ValidationError otherwise).  The caller
    guarantees the rest: a fresh complex array (entries that are numbers),
    positive semidefinite with unit trace, and ``dims`` a sequence of
    Python ints.  So no state holds NaN or inf, and no reader checks for
    them again.
    """

    __slots__ = ("mat", "dims")

    def __init__(self, mat, dims, *, validate: bool = True):
        try:
            a = np.array(mat, dtype=complex, copy=True)
        except (TypeError, ValueError) as exc:  # ragged rows, or not numbers
            raise ValidationError(f"matrix must be a table of numbers: {exc}") from None
        dims = _check_dims(dims) if validate else tuple(dims)
        n = math.prod(dims)
        if a.shape != (n, n):
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValidationError(f"expected a square matrix, got shape {a.shape}")
            raise ValidationError(
                f"dims {dims} inconsistent with matrix dimension {a.shape[0]}"
            )
        _require_finite(a)
        if validate:
            _require_hermitian(a)
            tr = float(a.trace().real)
            if abs(tr - 1.0) > TOLS.trace_one:
                raise ValidationError(
                    f"trace {tr!r} deviates from 1 beyond {TOLS.trace_one:.1e}"
                )
            wmin = float(np.linalg.eigvalsh(a)[0])
            if wmin < -TOLS.psd:
                raise PositivityError(
                    f"negative eigenvalue {wmin:.3e} below -{TOLS.psd:.1e}"
                )
        a.setflags(write=False)
        self.mat = a
        self.dims = dims

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, dims={self.dims})"


def _check_dims(dims) -> tuple[int, ...]:
    """Subsystem dimensions as a tuple of integers >= 1 (ValidationError
    otherwise)."""
    try:
        return tuple(check_count("subsystem dimension", d) for d in dims)
    except TypeError:  # not iterable
        raise ValidationError(f"dims must be a list of integers, got {dims!r}") from None


@dataclass(frozen=True, eq=False)
class BlochTwoQubit:
    """Bloch parameters (x, y, T) of a two-qubit operator."""

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray


def bell_state_vectors() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bell basis kets in (phi+, phi-, psi+, psi-) order."""
    rt = 1.0 / np.sqrt(2.0)
    phi_p = np.array([rt, 0, 0, rt], dtype=complex)
    phi_m = np.array([rt, 0, 0, -rt], dtype=complex)
    psi_p = np.array([0, rt, rt, 0], dtype=complex)
    psi_m = np.array([0, rt, -rt, 0], dtype=complex)
    return phi_p, phi_m, psi_p, psi_m


def bell_states() -> tuple[DensityMatrix, ...]:
    """The four Bell states as density matrices (see module conventions)."""
    return tuple(
        DensityMatrix(np.outer(v, v.conj()), (2, 2), validate=False)
        for v in bell_state_vectors()
    )


def bell_diagonal(c: BellDiagonalParams | tuple[float, float, float]) -> DensityMatrix:
    """Bell-diagonal state (1/4)(1x1 + sum_i c_i sigma_i x sigma_i)."""
    if not isinstance(c, BellDiagonalParams):
        c = BellDiagonalParams(*c)
    mat = 0.25 * (_I4 + c.c1 * _PAA[0] + c.c2 * _PAA[1] + c.c3 * _PAA[2])
    return DensityMatrix(mat, (2, 2), validate=False)


def werner(p: float) -> DensityMatrix:
    """Singlet mixed with white noise: (1-p)|psi-><psi-| + (p/4) 1x1."""
    p = check_real("werner parameter", p, 0.0, 1.0, "[]")
    return bell_diagonal(BellDiagonalParams(-(1 - p), -(1 - p), -(1 - p)))


def maximally_mixed(dims=(2, 2)) -> DensityMatrix:
    """The state 1/d on the given subsystem dimensions (integers >= 1)."""
    dims = _check_dims(dims)
    d = math.prod(dims)
    return DensityMatrix(np.eye(d, dtype=complex) / d, dims, validate=False)


def bloch_decompose(rho: DensityMatrix) -> BlochTwoQubit:
    """Bloch parameters of a two-qubit state (see module conventions)."""
    if rho.dims != (2, 2):
        raise ValidationError(f"bloch decomposition needs dims (2, 2), got {rho.dims}")
    v = _BLOCH_TABLE @ rho.mat.reshape(16).view(float)
    return BlochTwoQubit(x=v[:3], y=v[3:6], T=v[6:].reshape(3, 3))


def bloch_compose(b: BlochTwoQubit) -> DensityMatrix:
    """Rebuild the two-qubit state from Bloch parameters, validated."""
    x = np.asarray(b.x, dtype=float)
    y = np.asarray(b.y, dtype=float)
    t = np.asarray(b.T, dtype=float)
    if x.shape != (3,) or y.shape != (3,) or t.shape != (3, 3):
        raise ValidationError("bloch parameters must have shapes (3,), (3,), (3,3)")
    mat = 0.25 * (
        _I4
        + np.einsum("i,iab->ab", x, _PA)
        + np.einsum("j,jab->ab", y, _PB)
        + np.einsum("ij,ijab->ab", t, _PAB)
    )
    return DensityMatrix(mat, (2, 2))


def state_inversion(rho: DensityMatrix) -> DensityMatrix:
    """Universal two-qubit state inversion (sigma_y x sigma_y) rho^T (sigma_y x sigma_y).

    Spectrum-preserving; negates both local Bloch vectors and fixes the
    correlation matrix, so Bell-diagonal states are fixed points.
    """
    if rho.dims != (2, 2):
        raise ValidationError(f"state inversion needs dims (2, 2), got {rho.dims}")
    yy = _PAB[1, 1]
    return DensityMatrix(yy @ rho.mat.T @ yy, (2, 2), validate=False)


def _rng(seed) -> np.random.Generator:
    """The generator of every random draw: ``seed`` is a Generator, used as
    is, or an integer >= 0 (ValidationError otherwise)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(check_count("seed", seed, least=0))


def _random_densities(dim: int, rank: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """Stack (n, dim, dim) of n random states of the given rank (arguments
    unchecked).  One ``standard_normal`` call holds the real and imaginary
    halves of each G in turn, so the generator is used exactly as n calls of
    ``random_density(dim, rank, seed=rng)`` use it, and the states are the
    same to the bit."""
    x = rng.standard_normal((n, 2, dim, rank))
    g = x[:, 0] + 1j * x[:, 1]
    m = g @ g.conj().swapaxes(-1, -2)
    m /= np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    return m


def random_density(dim: int, rank: int | None = None, seed=0) -> DensityMatrix:
    """Random state via partial trace of a Gaussian-amplitude purification.

    ``G`` is a dim x rank complex Gaussian matrix; the state is
    G G^dag / tr(G G^dag), which has the requested rank almost surely.
    Deterministic for a fixed integer seed.  ``dim`` must be an integer
    >= 1, ``rank`` None (full rank) or an integer in [1, dim] and ``seed``
    a Generator or an integer >= 0 (ValidationError otherwise).
    """
    dim = check_count("dim", dim)
    rank = dim if rank is None else check_count("rank", rank, most=dim)
    m = _random_densities(dim, rank, _rng(seed), 1)[0]
    dims = (2, 2) if dim == 4 else (dim,)
    return DensityMatrix(m, dims, validate=False)


def random_unitary(dim: int, seed=0) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    ``dim`` must be an integer >= 1 and ``seed`` a Generator or an integer
    >= 0 (ValidationError otherwise)."""
    dim = check_count("dim", dim)
    rng = _rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the distribution is Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_bell_diagonal(seed=0) -> BellDiagonalParams:
    """Uniform mixing weights over the four Bell states, mapped to (c1, c2, c3).

    ``seed`` is a Generator or an integer >= 0 (ValidationError otherwise)."""
    rng = _rng(seed)
    w = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    c = np.array(BELL_SIGNS) @ w
    return BellDiagonalParams(c[0], c[1], c[2])


def _trace_distances(rhos, sigmas) -> np.ndarray:
    """Trace norms of the differences rhos[i] - sigmas[i], from one stacked
    ``eigvalsh`` per matrix size (none for no pairs).

    Each pair must have equal dims, and each difference must be Hermitian
    within TOLS.hermiticity, as ``operator_core.trace_norm`` asks
    (ValidationError otherwise); states hold finite entries by
    construction."""
    by_size: dict[int, list[int]] = {}
    for i, (rho, sigma) in enumerate(zip(rhos, sigmas)):
        if rho.dims != sigma.dims:
            raise ValidationError(f"dims mismatch: {rho.dims} vs {sigma.dims}")
        by_size.setdefault(rho.dim, []).append(i)
    out = np.empty(len(rhos))
    for idx in by_size.values():
        diff = np.array([rhos[i].mat for i in idx]) - np.array([sigmas[i].mat for i in idx])
        _require_hermitian(diff)
        out[idx] = np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)
    return out


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Trace norm of the difference of two states with the same dims
    (ValidationError otherwise)."""
    return float(_trace_distances((rho,), (sigma,))[0])


def state_to_json(rho: DensityMatrix) -> dict:
    """Canonical JSON-ready form: dims plus real/imag entry tables."""
    return {
        "dims": list(rho.dims),
        "re": [[float(v) for v in row] for row in rho.mat.real],
        "im": [[float(v) for v in row] for row in rho.mat.imag],
    }


def state_from_json(obj: dict | str) -> DensityMatrix:
    """Parse a state from any of the three accepted JSON shapes.

    Accepted: {"dims": [...], "re": [[...]], "im": [[...]]},
    {"bloch": {"x": [...], "y": [...], "T": [[...]]}} and
    {"bds": [c1, c2, c3]}.  Malformed shapes, entries that are not
    numbers, ragged tables and dims that are not integers >= 1 raise
    ValidationError; validation then runs on the parsed state, so
    non-positive inputs raise PositivityError.
    """
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except RecursionError:
            raise ValidationError("state JSON is nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"state JSON must be an object, got {type(obj).__name__}")
    if "bds" in obj:
        c = obj["bds"]
        if not isinstance(c, (list, tuple)) or len(c) != 3:
            raise ValidationError('"bds" must be a list [c1, c2, c3]')
        try:
            c = [float(v) for v in c]
        except (TypeError, ValueError):
            raise ValidationError(f'"bds" entries must be numbers, got {obj["bds"]!r}') from None
        return bell_diagonal(BellDiagonalParams(*c))
    if "bloch" in obj:
        b = obj["bloch"]
        try:
            params = BlochTwoQubit(
                x=np.asarray(b["x"], dtype=float),
                y=np.asarray(b["y"], dtype=float),
                T=np.asarray(b["T"], dtype=float),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f'"bloch" object needs x, y, T arrays: {exc}') from exc
        return bloch_compose(params)
    if "re" in obj:
        dims = obj.get("dims")
        if dims is None:
            raise ValidationError('matrix-form state JSON needs a "dims" field')
        try:
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f'"re" and "im" must be tables of numbers: {exc}') from exc
        if re.shape != im.shape:
            raise ValidationError('"re" and "im" tables must have the same shape')
        mat = as_complex_matrix(re + 1j * im)
        return DensityMatrix(mat, dims, validate=True)
    raise ValidationError(
        'unrecognized state JSON: expected one of the keys "re", "bloch", "bds"'
    )
