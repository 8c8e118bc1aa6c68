"""Linear-algebra layer: validation, trace norm, partial transpose."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from robustlab.errors import ValidationError
from robustlab.operator_core import (
    as_complex_matrix,
    partial_transpose,
    require_hermitian,
    trace_norm,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


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

    def test_matches_eigh_eigenvalues(self, rng):
        for n in (1, 2, 4, 8):
            for _ in range(50):
                a = random_hermitian(rng, n)
                expected = float(np.sum(np.abs(np.linalg.eigh(a)[0])))
                assert abs(trace_norm(a) - expected) <= 1e-14 * max(1.0, expected)

    def test_validates_input(self):
        with pytest.raises(ValidationError):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            trace_norm(np.array([[math.nan, 0.0], [0.0, 0.0]]))


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
            partial_transpose(np.kron(a, b), (2, 2), 1), np.kron(a, b.T), atol=1e-13
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
    # the validated eigendecomposition of min_scaling_robustness
    w, v = np.linalg.eigh(require_hermitian(h))
    assert w[0] <= w[1]
    assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-10
    assert trace_norm(h) >= abs(a + b) - 1e-10
