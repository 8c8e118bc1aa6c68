"""Linear-algebra layer: eigensolvers, trace norm, partial transpose."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from robustlab.errors import ValidationError
from robustlab.operator_core import (
    Spectrum,
    as_complex_matrix,
    eig_hermitian,
    kron,
    partial_transpose,
    require_hermitian,
    trace_norm,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def eig_hermitian_jacobi(h, offdiag_tol=1e-13, max_sweeps=60):
    """Cyclic Jacobi eigendecomposition for complex Hermitian matrices.

    Sweeps over all (p, q) pairs, each time applying the unitary plane
    rotation that zeroes A[p, q].  Converged when the off-diagonal
    Frobenius mass drops below ``offdiag_tol``.  A self-contained reference
    implementation that cross-checks the LAPACK-backed :func:`eig_hermitian`.
    """
    a = require_hermitian(h).copy()
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    if n == 1:
        return Spectrum(eigenvalues=a.real.diagonal().copy(), eigenvectors=v)

    def offdiag_mass() -> float:
        off = a - np.diag(np.diagonal(a))
        return float(np.linalg.norm(off))

    converged = False
    for _ in range(max_sweeps):
        if offdiag_mass() < offdiag_tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r < offdiag_tol / (n * n):
                    continue
                u = apq / r  # phase e^{i phi}
                app = a[p, p].real
                aqq = a[q, q].real
                # rotation angle for the phase-aligned real 2x2 block
                tau = (aqq - app) / (2.0 * r)
                if tau >= 0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # columns: col_p' = c*col_p - s*conj(u)*col_q ; col_q' = s*u*col_p + c*col_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(u) * col_q
                a[:, q] = s * u * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * u * row_q
                a[q, :] = s * np.conj(u) * row_p + c * row_q
                vcol_p = v[:, p].copy()
                vcol_q = v[:, q].copy()
                v[:, p] = c * vcol_p - s * np.conj(u) * vcol_q
                v[:, q] = s * u * vcol_p + c * vcol_q
    if not converged and offdiag_mass() >= offdiag_tol:
        raise ArithmeticError(
            f"jacobi sweep did not converge after {max_sweeps} sweeps "
            f"(off-diagonal mass {offdiag_mass():.3e})"
        )

    w = np.real(np.diagonal(a)).copy()
    order = np.argsort(w, kind="stable")
    return Spectrum(eigenvalues=w[order], eigenvectors=v[:, order])


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            as_complex_matrix([1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            as_complex_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            as_complex_matrix([[np.nan, 0], [0, 1]])
        with pytest.raises(ValidationError):
            as_complex_matrix([[0, 1j * np.inf], [0, 1]])
        # the only bad entry has one finite part
        for bad in (complex(0.0, math.inf), complex(math.nan, 0.0),
                    complex(0.0, math.nan), complex(-math.inf, 1.0)):
            m = np.eye(3, dtype=complex)
            m[1, 2] = bad
            with pytest.raises(ValidationError, match="finite"):
                as_complex_matrix(m)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="not hermitian"):
            require_hermitian([[0.0, 1.0], [0.0, 0.0]])
        # a deviation of 5e-10 is far above TOLS.hermiticity = 1e-12
        with pytest.raises(ValidationError, match="not hermitian"):
            require_hermitian([[0.0, 1.0], [1.0 + 5e-10, 0.0]])


class TestEigHermitian:
    def test_diagonal(self):
        spec = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        spec = eig_hermitian(SX)
        assert_allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_reconstruction(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, 4)
            spec = eig_hermitian(h)
            err = np.max(np.abs(spec.reconstruct() - h))
            assert err <= 1e-10 * 4

    def test_eigenvalue_sum_is_trace(self, rng):
        for n in (2, 3, 4, 8):
            h = random_hermitian(rng, n)
            spec = eig_hermitian(h)
            assert_allclose(np.sum(spec.eigenvalues), h.trace().real, atol=1e-12)

    def test_eigenvectors_orthonormal(self, rng):
        v = eig_hermitian(random_hermitian(rng, 5)).eigenvectors
        assert_allclose(v.conj().T @ v, np.eye(5), atol=1e-12)


class TestJacobi:
    def test_matches_lapack(self, rng):
        for n in range(2, 9):
            h = random_hermitian(rng, n)
            w_ref = eig_hermitian(h).eigenvalues
            spec = eig_hermitian_jacobi(h)
            assert_allclose(spec.eigenvalues, w_ref, atol=1e-10)
            assert np.max(np.abs(spec.reconstruct() - h)) <= 1e-9

    def test_one_by_one(self):
        spec = eig_hermitian_jacobi([[2.5]])
        assert_allclose(spec.eigenvalues, [2.5])
        assert_allclose(spec.eigenvectors, [[1.0]])

    def test_already_diagonal(self):
        spec = eig_hermitian_jacobi(np.diag([4.0, -1.0, 0.5]))
        assert_allclose(spec.eigenvalues, [-1.0, 0.5, 4.0])

    def test_complex_offdiagonal(self):
        h = np.array([[1.0, 0.3 - 0.4j], [0.3 + 0.4j, -1.0]])
        spec = eig_hermitian_jacobi(h)
        # analytic: +-sqrt(1 + 0.25)
        assert_allclose(spec.eigenvalues, [-np.sqrt(1.25), np.sqrt(1.25)], atol=1e-12)


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([0.5, -0.5])) == pytest.approx(1.0)

    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_pauli_combination(self):
        # eigenvalues of a*sx + b*sy are +-hypot(a, b)
        assert trace_norm(0.3 * SX - 0.4 * SY) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10

    def test_unitary_invariance(self, rng):
        a = random_hermitian(rng, 4)
        u = random_unitary(rng, 4)
        assert trace_norm(u @ a @ u.conj().T) == pytest.approx(trace_norm(a), abs=1e-10)


class TestKron:
    def test_identity(self):
        assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sz_sz(self):
        assert_allclose(kron(SZ, SZ), np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_mixed_product(self, rng):
        a, b, c, d = (random_hermitian(rng, 2) for _ in range(4))
        assert_allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)


class TestPartialTranspose:
    def test_phi_plus(self):
        v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2.0)
        pt = partial_transpose(np.outer(v, v), (2, 2), 1)
        expect = 0.5 * np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1.0]]
        )
        assert_allclose(pt, expect, atol=1e-15)
        assert np.linalg.eigvalsh(pt)[0] == pytest.approx(-0.5)

    def test_identity_fixed(self):
        m = np.eye(4) / 4.0
        assert_allclose(partial_transpose(m, (2, 2), 0), m)
        assert_allclose(partial_transpose(m, (2, 2), 1), m)

    def test_involution(self, rng):
        m = random_hermitian(rng, 6)
        for sub in (0, 1):
            back = partial_transpose(partial_transpose(m, (2, 3), sub), (2, 3), sub)
            assert_allclose(back, m, atol=1e-15)

    def test_two_sided_is_full_transpose(self, rng):
        m = random_hermitian(rng, 4)
        assert_allclose(
            partial_transpose(m, (2, 2), 0), partial_transpose(m, (2, 2), 1).T,
            atol=1e-15,
        )

    def test_product_state(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        assert_allclose(
            partial_transpose(kron(a, b), (2, 2), 1), kron(a, b.T), atol=1e-13
        )

    def test_preserves_trace_and_hermiticity(self, rng):
        m = random_hermitian(rng, 4)
        pt = partial_transpose(m, (2, 2), 1)
        assert pt.trace() == pytest.approx(m.trace())
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-14

    def test_bad_dims(self):
        with pytest.raises(ValidationError):
            partial_transpose(np.eye(4), (2, 3), 1)
        with pytest.raises(ValidationError):
            partial_transpose(np.eye(4), (2, 2), 2)


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@given(a=finite, b=finite, c=finite, d=finite)
def test_two_by_two_spectral_properties(a, b, c, d):
    h = np.array([[a, c + 1j * d], [c - 1j * d, b]])
    spec = eig_hermitian(h)
    w = spec.eigenvalues
    assert w[0] <= w[1]
    assert np.max(np.abs(spec.reconstruct() - h)) <= 1e-10
    assert trace_norm(h) >= abs(a + b) - 1e-10


@given(a=finite, b=finite, c=finite, d=finite)
def test_jacobi_agrees_on_two_by_two(a, b, c, d):
    h = np.array([[a, c + 1j * d], [c - 1j * d, b]])
    assert_allclose(
        eig_hermitian_jacobi(h).eigenvalues, eig_hermitian(h).eigenvalues, atol=1e-10
    )
