"""Dense linear algebra for small Hilbert spaces (dimension <= 8).

Everything works on plain complex ndarrays.  Matrices are tiny, so clarity
and strict validation win over asymptotics; the eigensolver delegates to
LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOLS, resolve
from .errors import IllConditionedError, ValidationError

__all__ = [
    "Spectrum",
    "as_complex_matrix",
    "require_hermitian",
    "eig_hermitian",
    "trace_norm",
    "kron",
    "partial_transpose",
    "support_inv_sqrt",
]


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a square complex matrix, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValidationError("matrix entries must be finite (no NaN/Inf)")
    return a


def require_hermitian(h, tol: float | None = None) -> np.ndarray:
    """Validate hermiticity and return the matrix, else raise ValidationError."""
    a = as_complex_matrix(h)
    tol = resolve(tol, TOLS.hermiticity)
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if dev > tol:
        raise ValidationError(
            f"not hermitian: max |H - H^dag| = {dev:.3e} exceeds {tol:.1e}"
        )
    return a


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; column j of ``eigenvectors``
    belongs to ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(h, tol: float | None = None) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix (ascending eigenvalues).

    Input hermiticity is validated first; the decomposition itself is the
    LAPACK one.
    """
    a = require_hermitian(h, tol)
    w, v = np.linalg.eigh(a)
    return Spectrum(eigenvalues=w, eigenvectors=v)


def trace_norm(h, tol: float | None = None) -> float:
    """Trace norm (sum of |eigenvalues|) of a Hermitian matrix."""
    spec = eig_hermitian(h, tol)
    return float(np.sum(np.abs(spec.eigenvalues)))


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_transpose(mat, dims: tuple[int, int], subsystem: int) -> np.ndarray:
    """Partial transpose of a bipartite matrix over one tensor factor.

    ``dims`` = (d_A, d_B) with d_A * d_B equal to the matrix dimension;
    ``subsystem`` 0 transposes the first factor, 1 the second.
    """
    a = as_complex_matrix(mat)
    da, db = int(dims[0]), int(dims[1])
    if da * db != a.shape[0]:
        raise ValidationError(
            f"dims {dims} inconsistent with matrix dimension {a.shape[0]}"
        )
    if subsystem not in (0, 1):
        raise ValidationError(f"subsystem must be 0 or 1, got {subsystem!r}")
    t = a.reshape(da, db, da, db)
    if subsystem == 0:
        t = t.transpose(2, 1, 0, 3)
    else:
        t = t.transpose(0, 3, 2, 1)
    return t.reshape(da * db, da * db).copy()


def support_inv_sqrt(
    mat, cutoff: float | None = None, tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse square root of a PSD matrix on its support.

    Returns ``(s, p)`` where ``s`` inverts the square root on the support
    and annihilates the kernel, and ``p`` is the support projector.
    Eigenvalues at or below ``cutoff / 10`` are treated as zero and those at
    or above ``cutoff * 10`` as invertible; anything strictly between lands
    in an ambiguous band and raises IllConditionedError rather than
    guessing the rank.
    """
    cutoff = resolve(cutoff, TOLS.support_cutoff)
    spec = eig_hermitian(mat, tol)
    w, v = spec.eigenvalues, spec.eigenvectors
    lo, hi = cutoff / 10.0, cutoff * 10.0
    bad = (w > lo) & (w < hi)
    if np.any(bad):
        raise IllConditionedError(
            f"eigenvalue {w[bad][0]:.3e} falls in the ambiguous band "
            f"({lo:.1e}, {hi:.1e}); cannot decide the support rank"
        )
    keep = w >= hi
    inv_root = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    ones = np.where(keep, 1.0, 0.0)
    s = (v * inv_root) @ v.conj().T
    p = (v * ones) @ v.conj().T
    return s, p
