"""Dense linear algebra for small Hilbert spaces (dimension <= 8).

Everything works on plain complex ndarrays.  Matrices are tiny, so clarity
and strict validation win over asymptotics.  The module validates
(square, finite, Hermitian) and permutes indices; eigensolves are numpy's
LAPACK calls, made by the callers on validated arrays.
"""

from __future__ import annotations

import numpy as np

from .config import TOLS
from .errors import ValidationError

__all__ = [
    "as_complex_matrix",
    "require_hermitian",
    "trace_norm",
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


def _require_hermitian(a: np.ndarray) -> np.ndarray:
    """Return ``a``, a finite matrix or stack of matrices, if each is
    Hermitian within TOLS.hermiticity, else raise ValidationError."""
    dev = float(np.max(np.abs(a - a.conj().swapaxes(-1, -2)))) if a.size else 0.0
    if dev > TOLS.hermiticity:
        raise ValidationError(
            f"not hermitian: max |H - H^dag| = {dev:.3e} exceeds {TOLS.hermiticity:.1e}"
        )
    return a


def require_hermitian(h) -> np.ndarray:
    """Validate hermiticity and return the matrix, else raise ValidationError."""
    return _require_hermitian(as_complex_matrix(h))


def trace_norm(h) -> float:
    """Trace norm (sum of |eigenvalues|) of a Hermitian matrix, validated
    by :func:`require_hermitian`; one ``eigvalsh``, no eigenvectors."""
    a = require_hermitian(h)
    return float(np.sum(np.abs(np.linalg.eigvalsh(a))))


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
