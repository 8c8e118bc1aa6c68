"""Dense linear algebra for small Hilbert spaces (dimension <= 8).

Everything works on plain complex ndarrays.  Matrices are tiny, so clarity
and strict validation win over asymptotics; the eigensolver delegates to
LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOLS
from .errors import ValidationError

__all__ = [
    "Spectrum",
    "as_complex_matrix",
    "require_hermitian",
    "eig_hermitian",
    "trace_norm",
    "kron",
    "partial_transpose",
]


def _require_finite(a: np.ndarray) -> np.ndarray:
    """Return ``a`` if every entry is finite, else raise ValidationError."""
    if not np.isfinite(a).all():  # complex: finite iff both parts are
        raise ValidationError("matrix entries must be finite (no NaN/Inf)")
    return a


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a square complex matrix, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return _require_finite(a)


def require_hermitian(h) -> np.ndarray:
    """Validate hermiticity and return the matrix, else raise ValidationError."""
    a = as_complex_matrix(h)
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if dev > TOLS.hermiticity:
        raise ValidationError(
            f"not hermitian: max |H - H^dag| = {dev:.3e} exceeds {TOLS.hermiticity:.1e}"
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


def eig_hermitian(h) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix (ascending eigenvalues).

    Input hermiticity is validated first; the decomposition itself is the
    LAPACK one.
    """
    a = require_hermitian(h)
    w, v = np.linalg.eigh(a)
    return Spectrum(eigenvalues=w, eigenvectors=v)


def trace_norm(h) -> float:
    """Trace norm (sum of |eigenvalues|) of a Hermitian matrix, validated
    like :func:`eig_hermitian`; one ``eigvalsh``, no eigenvectors."""
    a = require_hermitian(h)
    return float(np.sum(np.abs(np.linalg.eigvalsh(a))))


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _partial_transpose(a: np.ndarray, da: int, db: int, subsystem: int) -> np.ndarray:
    """The index permutation of a partial transpose, without validation:
    ``a`` is a (da*db, da*db) array and ``subsystem`` 0 or 1.  The result
    may share memory with ``a`` when a factor has dimension 1."""
    t = a.reshape(da, db, da, db)
    t = t.transpose(2, 1, 0, 3) if subsystem == 0 else t.transpose(0, 3, 2, 1)
    return t.reshape(da * db, da * db)


def partial_transpose(mat, dims: tuple[int, int], subsystem: int) -> np.ndarray:
    """Partial transpose of a bipartite matrix over one tensor factor.

    ``dims`` = (d_A, d_B) with d_A * d_B equal to the matrix dimension;
    ``subsystem`` 0 transposes the first factor, 1 the second.  The input
    is validated here (square, finite, dims consistent; ValidationError
    otherwise) and the result is a fresh array.  The permutation itself is
    the private ``_partial_transpose``, which ``free_sets.is_ppt`` applies
    to a state's own array, already validated by ``DensityMatrix``.
    """
    a = as_complex_matrix(mat)
    da, db = int(dims[0]), int(dims[1])
    if da * db != a.shape[0]:
        raise ValidationError(
            f"dims {dims} inconsistent with matrix dimension {a.shape[0]}"
        )
    if subsystem not in (0, 1):
        raise ValidationError(f"subsystem must be 0 or 1, got {subsystem!r}")
    return _partial_transpose(a, da, db, subsystem).copy()
