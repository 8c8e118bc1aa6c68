"""State constructors, Bloch transforms, sampling and JSON round-trips."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from robustlab.errors import PositivityError, ValidationError
from robustlab.operator_core import trace_norm
from robustlab.qstates import (
    PAULI,
    BellDiagonalParams,
    BlochTwoQubit,
    DensityMatrix,
    bell_diagonal,
    bell_states,
    bloch_compose,
    bloch_decompose,
    maximally_mixed,
    random_bell_diagonal,
    random_density,
    random_unitary,
    state_from_json,
    state_inversion,
    state_to_json,
    trace_distance,
    werner,
)
from robustlab.qstates import _random_densities, _trace_distances

BELL_T = (
    np.diag([1.0, -1.0, 1.0]),
    np.diag([-1.0, 1.0, 1.0]),
    np.diag([1.0, 1.0, -1.0]),
    np.diag([-1.0, -1.0, -1.0]),
)


class TestDensityMatrix:
    def test_backing_array_read_only(self):
        rho = maximally_mixed()
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.3

    def test_dims_mismatch(self):
        with pytest.raises(ValidationError, match="inconsistent"):
            DensityMatrix(np.eye(4) / 4.0, (2, 3))

    def test_trace_check(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(4) / 2.0, (2, 2))

    def test_hermiticity_check(self):
        m = np.eye(4) / 4.0 + 0j
        m[0, 1] = 0.1
        with pytest.raises(ValidationError):
            DensityMatrix(m, (2, 2))

    def test_positivity_check(self):
        with pytest.raises(PositivityError):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_validate_false_skips(self):
        DensityMatrix(np.diag([1.5, -0.5]), (2,), validate=False)

    def test_validate_false_checks_shape_and_copies(self):
        with pytest.raises(ValidationError, match="square"):
            DensityMatrix(np.ones((4, 2)) / 4.0, (2, 2), validate=False)
        with pytest.raises(ValidationError, match="square"):
            DensityMatrix(np.ones(4) / 4.0, (2, 2), validate=False)
        with pytest.raises(ValidationError, match="inconsistent"):
            DensityMatrix(np.eye(4) / 4.0, (2, 3), validate=False)
        m = np.eye(4, dtype=complex) / 4.0
        rho = DensityMatrix(m, (2, 2), validate=False)
        m[0, 0] = 7.0
        assert rho.mat[0, 0] == 0.25 and rho.dims == (2, 2)

    @pytest.mark.parametrize("validate", [False, True])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 3), (3, 0)], ids=["diag", "upper", "lower"])
    def test_non_finite_entry_refused(self, validate, value, entry):
        # in both modes, so no state hands a reader NaN or inf
        mat = np.eye(4, dtype=complex) / 4.0
        mat[entry] = value
        with pytest.raises(ValidationError, match="finite"):
            DensityMatrix(mat, (2, 2), validate=validate)

    @pytest.mark.parametrize("dims", [(-2, -2), (4.9, 1), (0, 4), ("2", "2"), "22", 4])
    def test_bad_dims(self, dims):
        # (-2, -2) reached partial_transpose; (4.9, 1) was read as (4, 1)
        with pytest.raises(ValidationError, match="dim"):
            DensityMatrix(np.eye(4) / 4.0, dims)

    @pytest.mark.parametrize("mat", [[[1, 0], [0]], [["a", 0], [0, 1]], [[{}, 0], [0, 1]]])
    def test_ragged_or_non_numeric_matrix(self, mat):
        # numpy's bare ValueError/TypeError escaped the constructor
        with pytest.raises(ValidationError, match="table of numbers"):
            DensityMatrix(mat, (2,))

    @pytest.mark.parametrize("dims", [(-1,), (0,), (4.9,), (2, -2)])
    def test_maximally_mixed_bad_dims(self, dims):
        with pytest.raises(ValidationError, match="dimension"):
            maximally_mixed(dims)


class TestBellStates:
    def test_orthonormal_and_pure(self):
        states = bell_states()
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                overlap = np.real(np.trace(a.mat @ b.mat))
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_correlation_matrices(self):
        # the (phi+, phi-, psi+, psi-) ordering convention, pinned
        for state, t in zip(bell_states(), BELL_T):
            b = bloch_decompose(state)
            assert_allclose(b.T, t, atol=1e-12)
            assert_allclose(b.x, 0.0, atol=1e-12)
            assert_allclose(b.y, 0.0, atol=1e-12)

    def test_maximally_mixed_marginals(self):
        for state in bell_states():
            m = state.mat.reshape(2, 2, 2, 2)
            assert_allclose(np.einsum("ijkj->ik", m), np.eye(2) / 2.0, atol=1e-12)
            assert_allclose(np.einsum("jijk->ik", m), np.eye(2) / 2.0, atol=1e-12)


class TestBellDiagonal:
    def test_origin_is_maximally_mixed(self):
        assert_allclose(bell_diagonal((0.0, 0.0, 0.0)).mat, np.eye(4) / 4.0)

    def test_singlet_corner(self):
        assert_allclose(
            bell_diagonal((-1.0, -1.0, -1.0)).mat, bell_states()[3].mat, atol=1e-12
        )

    def test_weights_match_spectrum(self, rng):
        for _ in range(25):
            params = random_bell_diagonal(rng)
            rho = bell_diagonal(params)
            w = np.sort(params.weights())
            assert_allclose(np.linalg.eigvalsh(rho.mat), w, atol=1e-12)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_corner_rejected(self):
        with pytest.raises(PositivityError, match=r"1-c1-c2-c3 >= 0 violated"):
            BellDiagonalParams(1.0, 1.0, 1.0)
        with pytest.raises(PositivityError, match=r"1-c1\+c2\+c3 >= 0 violated"):
            BellDiagonalParams(1.0, -1.0, -1.0)

    def test_valid_corner_accepted(self):
        BellDiagonalParams(1.0, -1.0, 1.0)  # the phi+ corner

    def test_as_tuple(self):
        assert BellDiagonalParams(0.1, -0.2, 0.3).as_tuple() == (0.1, -0.2, 0.3)


class TestWerner:
    def test_construction(self):
        p = 0.35
        singlet = bell_states()[3]
        expect = (1.0 - p) * singlet.mat + p * np.eye(4) / 4.0
        assert_allclose(werner(p).mat, expect, atol=1e-12)

    def test_endpoints(self):
        assert_allclose(werner(1.0).mat, np.eye(4) / 4.0)
        assert_allclose(werner(0.0).mat, bell_states()[3].mat)

    def test_half(self):
        b = bloch_decompose(werner(0.5))
        assert_allclose(np.diagonal(b.T), [-0.5, -0.5, -0.5], atol=1e-12)

    def test_distance_to_center(self):
        mm = maximally_mixed()
        for p in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert trace_distance(werner(p), mm) == pytest.approx(
                1.5 * (1.0 - p), abs=1e-12
            )

    def test_range_check(self):
        with pytest.raises(ValidationError):
            werner(-0.1)
        with pytest.raises(ValidationError):
            werner(1.1)


class TestBloch:
    def test_matches_pauli_traces(self, rng):
        one = np.eye(2)
        for rank in (4, 1, 2, 3):
            for _ in range(50):
                rho = random_density(4, rank=rank, seed=rng)
                dec = bloch_decompose(rho)

                def tr(op):
                    return np.trace(rho.mat @ op).real

                assert_allclose(dec.x, [tr(np.kron(s, one)) for s in PAULI], rtol=0, atol=1e-15)
                assert_allclose(dec.y, [tr(np.kron(one, s)) for s in PAULI], rtol=0, atol=1e-15)
                t = [[tr(np.kron(si, sj)) for sj in PAULI] for si in PAULI]
                assert_allclose(dec.T, t, rtol=0, atol=1e-15)
                back = bloch_compose(dec)
                assert np.max(np.abs(back.mat - rho.mat)) <= 1e-15

    def test_fortran_ordered_state(self, rng):
        rho = random_density(4, seed=rng)
        f = DensityMatrix(np.asfortranarray(rho.mat), (2, 2), validate=False)
        assert not f.mat.flags.c_contiguous
        a, b = bloch_decompose(rho), bloch_decompose(f)
        for u, v in ((a.x, b.x), (a.y, b.y), (a.T, b.T)):
            assert_allclose(u, v, rtol=0, atol=0)

    def test_round_trip(self, rng):
        for _ in range(100):
            rho = random_density(4, seed=rng)
            back = bloch_compose(bloch_decompose(rho))
            assert np.max(np.abs(back.mat - rho.mat)) <= 1e-12

    def test_product_state(self, rng):
        a = 0.5 * (np.eye(2) + 0.3 * np.array([[0, 1], [1, 0]]))
        b = 0.5 * (np.eye(2) - 0.4 * np.array([[1, 0], [0, -1]]))
        rho = DensityMatrix(np.kron(a, b), (2, 2))
        dec = bloch_decompose(rho)
        assert_allclose(dec.x, [0.3, 0.0, 0.0], atol=1e-12)
        assert_allclose(dec.y, [0.0, 0.0, -0.4], atol=1e-12)
        assert_allclose(dec.T, np.outer(dec.x, dec.y), atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            bloch_compose(BlochTwoQubit(x=np.zeros(2), y=np.zeros(3), T=np.zeros((3, 3))))
        with pytest.raises(ValidationError):
            bloch_decompose(DensityMatrix(np.eye(4) / 4.0, (4,)))


class TestStateInversion:
    def test_bell_diagonal_fixed(self, rng):
        rho = bell_diagonal(random_bell_diagonal(rng))
        assert_allclose(state_inversion(rho).mat, rho.mat, atol=1e-12)

    def test_negates_local_vectors(self, rng):
        rho = random_density(4, seed=rng)
        b0 = bloch_decompose(rho)
        b1 = bloch_decompose(state_inversion(rho))
        assert_allclose(b1.x, -b0.x, atol=1e-12)
        assert_allclose(b1.y, -b0.y, atol=1e-12)
        assert_allclose(b1.T, b0.T, atol=1e-12)

    def test_spectrum_preserving_involution(self, rng):
        rho = random_density(4, seed=rng)
        inv = state_inversion(rho)
        assert_allclose(
            np.linalg.eigvalsh(inv.mat), np.linalg.eigvalsh(rho.mat), atol=1e-12
        )
        assert_allclose(state_inversion(inv).mat, rho.mat, atol=1e-12)


class TestSampling:
    def test_rank_one_is_pure(self):
        rho = random_density(4, rank=1, seed=7)
        assert np.real(np.trace(rho.mat @ rho.mat)) == pytest.approx(1.0, abs=1e-12)

    def test_full_rank(self):
        rho = random_density(4, seed=7)
        assert np.linalg.eigvalsh(rho.mat)[0] > 0.0

    def test_seed_determinism(self):
        a = random_density(4, seed=42)
        b = random_density(4, seed=42)
        assert_allclose(a.mat, b.mat)

    def test_generator_advances(self, rng):
        a = random_density(4, seed=rng)
        b = random_density(4, seed=rng)
        assert np.max(np.abs(a.mat - b.mat)) > 1e-3

    def test_rank_validation(self):
        with pytest.raises(ValidationError):
            random_density(4, rank=5)
        with pytest.raises(ValidationError):
            random_density(4, rank=0)

    @pytest.mark.parametrize("dim, rank", [
        (4, math.nan), (4, math.inf), (4, 1.5), (4, "2"),
        (math.nan, None), (0, None), (2.5, None), ("4", None),
    ])
    def test_non_integer_dim_or_rank(self, dim, rank):
        with pytest.raises(ValidationError):
            random_density(dim, rank=rank)

    def test_random_unitary(self):
        u = random_unitary(4, seed=3)
        assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        assert_allclose(u, random_unitary(4, seed=3))

    def test_random_bell_diagonal_valid(self):
        for seed in range(30):
            params = random_bell_diagonal(seed)
            assert np.min(params.weights()) >= -1e-12
        assert random_bell_diagonal(5).as_tuple() == random_bell_diagonal(5).as_tuple()

    @pytest.mark.parametrize("seed", [-1, 1.5, math.nan, math.inf, "3", None])
    @pytest.mark.parametrize("draw", [
        lambda seed: random_density(4, seed=seed),
        lambda seed: random_unitary(2, seed),
        random_bell_diagonal,
    ], ids=["random_density", "random_unitary", "random_bell_diagonal"])
    def test_bad_seed(self, draw, seed):
        with pytest.raises(ValidationError, match="seed"):
            draw(seed)

    def test_integral_float_seed(self):
        assert np.array_equal(random_density(4, seed=3.0).mat, random_density(4, seed=3).mat)

    @pytest.mark.parametrize("dim", [0, -1, 2.5, math.nan, "2"])
    def test_random_unitary_bad_dim(self, dim):
        with pytest.raises(ValidationError, match="dim"):
            random_unitary(dim)


def per_state_density(dim, rng, rank=None):
    """Reference: one random state drawn by two ``standard_normal`` calls,
    the real and then the imaginary half of G."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m /= m.trace().real
    return m


class TestStackedDraw:
    """``_random_densities`` draws n states in one call; they and the
    generator's next draw equal those of n per-state draws."""

    @pytest.mark.parametrize("dim, rank", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3), (4, 4), (8, 5)])
    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_same_bytes_and_stream(self, dim, rank, n):
        stacked_rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        stack = _random_densities(dim, rank, stacked_rng, n)
        assert stack.shape == (n, dim, dim)
        for m in stack:
            assert m.tobytes() == per_state_density(dim, ref_rng, rank).tobytes()
        assert stacked_rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("dim, rank", [(2, None), (4, None), (4, 3), (3, 1)])
    def test_random_density_is_the_single_draw(self, dim, rank):
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(5):
            rho = random_density(dim, rank=rank, seed=rng)
            assert rho.mat.tobytes() == per_state_density(dim, ref_rng, rank).tobytes()
        assert rng.standard_normal() == ref_rng.standard_normal()


class TestTraceDistance:
    def test_mismatched_dims(self):
        with pytest.raises(ValidationError, match=r"\(2,\) vs \(2, 2\)"):
            trace_distance(maximally_mixed((2,)), maximally_mixed())
        # same matrix size, different subsystems
        with pytest.raises(ValidationError, match=r"\(2, 2\) vs \(4,\)"):
            trace_distance(maximally_mixed(), maximally_mixed((4,)))

    def test_matches_trace_norm(self, rng):
        for dim in (1, 2, 3, 4):
            rho, sigma = random_density(dim, seed=rng), random_density(dim, seed=rng)
            assert trace_distance(rho, sigma) == trace_norm(rho.mat - sigma.mat)

    def test_stacked_matches_per_pair(self, rng):
        # mixed sizes are measured one stack per size, in the caller's order
        rhos = [random_density(d, seed=rng) for d in (4, 2, 4, 3, 2)]
        sigmas = [random_density(d, seed=rng) for d in (4, 2, 4, 3, 2)]
        got = _trace_distances(rhos, sigmas)
        assert got.tolist() == [trace_norm(r.mat - s.mat) for r, s in zip(rhos, sigmas)]
        assert _trace_distances([], []).shape == (0,)

    def test_stacked_checks_each_difference(self, rng):
        good = random_density(4, seed=rng)
        skew = good.mat.copy()
        skew[0, 1] += 1e-6  # no longer Hermitian
        bad = DensityMatrix(skew, (2, 2), validate=False)
        with pytest.raises(ValidationError, match="not hermitian"):
            _trace_distances([good, good, bad], [good, good, good])
        nan = good.mat.copy()
        nan[2, 2] = math.nan
        with pytest.raises(ValidationError, match="finite"):
            _trace_distances([good, good], [good, DensityMatrix(nan, (2, 2), validate=False)])


class TestJson:
    def test_matrix_round_trip(self, rng):
        for _ in range(50):
            rho = random_density(4, seed=rng)
            back = state_from_json(json.loads(json.dumps(state_to_json(rho))))
            assert np.array_equal(back.mat, rho.mat)
            assert back.dims == rho.dims

    def test_bds_shape(self):
        rho = state_from_json({"bds": [0.5, 0.3, 0.1]})
        assert_allclose(rho.mat, bell_diagonal((0.5, 0.3, 0.1)).mat)

    def test_bloch_shape(self):
        obj = {"bloch": {"x": [0, 0, 0], "y": [0, 0, 0], "T": np.diag([0.5, 0.3, 0.1]).tolist()}}
        assert_allclose(state_from_json(obj).mat, bell_diagonal((0.5, 0.3, 0.1)).mat)

    def test_string_input(self):
        rho = state_from_json('{"bds": [0.0, 0.0, 0.0]}')
        assert_allclose(rho.mat, np.eye(4) / 4.0)

    def test_errors(self):
        with pytest.raises(ValidationError, match="dims"):
            state_from_json({"re": [[1.0]]})
        with pytest.raises(ValidationError):
            state_from_json({"bds": [0.1, 0.2]})
        with pytest.raises(ValidationError):
            state_from_json({"bloch": {"x": [0, 0, 0]}})
        with pytest.raises(ValidationError):
            state_from_json([1, 2, 3])
        with pytest.raises(ValidationError):
            state_from_json({"something": 1})

    def test_malformed_shapes(self, malformed_state):
        with pytest.raises(ValidationError):
            state_from_json(json.dumps(malformed_state))

    def test_positivity_surfaces(self):
        with pytest.raises(PositivityError):
            state_from_json({"bds": [1.0, 1.0, 1.0]})
        bad = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(PositivityError):
            state_from_json({"dims": [2, 2], "re": bad.tolist()})
