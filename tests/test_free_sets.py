"""Free-set membership oracles, ball radii and the star-convexity audit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from robustlab import free_sets
from robustlab.audit import AuditConfig, audit_star_convexity
from robustlab.config import TOLS
from robustlab.engines import robustness_along_ray
from robustlab.errors import ConfigurationError, ValidationError
from robustlab.free_sets import (
    FreeSetOracle,
    bds_params_of,
    discord_defect,
    has_zero_discord,
    is_ppt,
    is_unfaithful,
    oracle_by_name,
    random_quantum_classical,
    sample_trace_ball,
    separable_ball_radius,
    singlet_fraction,
    teleportation_ball_radius,
)
from robustlab.operator_core import partial_transpose, trace_norm
from robustlab.qstates import (
    DensityMatrix,
    bell_diagonal,
    bell_state_vectors,
    bell_states,
    bloch_decompose,
    maximally_mixed,
    random_bell_diagonal,
    random_density,
    random_unitary,
    trace_distance,
    werner,
)


class TestPPT:
    def test_maximally_mixed(self):
        assert is_ppt(maximally_mixed())

    def test_bell_states(self):
        for state in bell_states():
            assert not is_ppt(state)

    def test_werner_threshold(self):
        # bisect the membership boundary of the werner family; it sits at 2/3
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            if is_ppt(werner(mid)):
                hi = mid
            else:
                lo = mid
        assert hi == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_needs_bipartite(self):
        with pytest.raises(ValidationError):
            is_ppt(DensityMatrix(np.eye(4) / 4.0, (4,)))

    def test_same_decisions_as_validated_partial_transpose(self, rng):
        # reference: the validating public partial_transpose plus eigvalsh
        def reference(rho):
            pt = partial_transpose(rho.mat, rho.dims, 1)
            return float(np.linalg.eigvalsh(pt)[0]) >= -TOLS.ppt

        mm = maximally_mixed()
        states = []
        for rank in (4, 1, 2, 3):
            states += [random_density(4, rank=rank, seed=rng) for _ in range(1500)]
        states += [werner(p) for p in 2.0 / 3.0 + np.linspace(-1e-3, 1e-3, 1001)]
        states += [werner(2.0 / 3.0 + d) for d in (-1e-9, -1e-10, 0.0, 1e-10, 1e-9)]
        for _ in range(1000):  # mixtures along noise rays, across the boundary
            rho = random_density(4, seed=rng)
            for s in (0.25, 0.5, 1.0, 2.0, 4.0):
                states.append(DensityMatrix((rho.mat + s * mm.mat) / (1.0 + s), (2, 2),
                                            validate=False))
        assert len(states) >= 10_000
        decisions = [is_ppt(rho) for rho in states]
        assert decisions == [reference(rho) for rho in states]
        assert 0 < sum(decisions) < len(states)  # both answers occur

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 3), (3, 0)], ids=["diag", "upper", "lower"])
    def test_non_finite_entry_raises(self, value, entry):
        # eigvalsh reads one triangle, so only an explicit check sees an
        # entry above the diagonal
        mat = np.eye(4, dtype=complex) / 4.0
        mat[entry] = value
        with pytest.raises(ValidationError):
            is_ppt(DensityMatrix(mat, (2, 2), validate=False))


class TestDiscordDefect:
    def test_quantum_classical_vanishes(self, rng):
        for _ in range(50):
            rho = random_quantum_classical(rng)
            assert abs(discord_defect(rho)) <= 1e-12

    def test_single_axis_vanishes(self):
        assert discord_defect(bell_diagonal((0.7, 0.0, 0.0))) == pytest.approx(0.0, abs=1e-14)

    def test_bell_diagonal_values(self):
        # diagonal T: defect is the sum of the two smallest c_i^2
        assert discord_defect(bell_diagonal((0.5, 0.3, 0.0))) == pytest.approx(0.09, abs=1e-12)
        assert discord_defect(bell_diagonal((0.5, 0.3, 0.1))) == pytest.approx(0.10, abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(200):
            assert discord_defect(random_density(4, seed=rng)) >= -1e-10

    def test_local_unitary_invariance(self, rng):
        rho = random_density(4, seed=rng)
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T, (2, 2), validate=False)
        assert discord_defect(rotated) == pytest.approx(discord_defect(rho), abs=1e-10)

    def test_membership_threshold(self):
        assert has_zero_discord(bell_diagonal((0.5, 1e-5, 0.0)))       # defect 1e-10
        assert not has_zero_discord(bell_diagonal((0.5, 1e-4, 0.0)))   # defect 1e-8


class TestBallRadii:
    def test_separable_radius(self):
        assert separable_ball_radius(2, 2) == pytest.approx(1.0 / np.sqrt(12.0))
        assert separable_ball_radius(2, 3) == pytest.approx(1.0 / np.sqrt(30.0))

    def test_teleport_radius(self):
        assert teleportation_ball_radius(2) == 0.25
        assert teleportation_ball_radius(3) == pytest.approx(2.0 / 9.0)

    @pytest.mark.parametrize("d_a, d_b", [(1, 1), (2, 1), (2.7, 2), (math.nan, 2), (2, math.inf)])
    def test_separable_radius_bad_dims(self, d_a, d_b):
        with pytest.raises(ValidationError, match="d_"):
            separable_ball_radius(d_a, d_b)

    @pytest.mark.parametrize("d", [0, 1, 2.5, math.nan])
    def test_teleport_radius_bad_dim(self, d):
        with pytest.raises(ValidationError, match="d must"):
            teleportation_ball_radius(d)

    def test_ball_samples_are_ppt(self, rng):
        center = maximally_mixed()
        kappa = separable_ball_radius(2, 2)
        for _ in range(200):
            rho = sample_trace_ball(center, kappa, rng)
            assert is_ppt(rho)


def per_half_trace_ball(center, radius, rng):
    """Reference trace-ball sampler: the real and imaginary halves of the
    Gaussian in two calls, normalised by the validating trace norm."""
    d = center.dim
    n_dof = d * d - 1
    for _ in range(1000):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2.0
        h -= np.eye(d) * (h.trace().real / d)
        h /= trace_norm(h)
        r = radius * rng.uniform() ** (1.0 / n_dof)
        mat = center.mat + r * h
        if float(np.linalg.eigvalsh(mat)[0]) >= 0.0:
            return mat
    raise AssertionError("reference ball sampler found no positive state")


class TestSampleTraceBall:
    def test_radius_respected(self, rng):
        center = maximally_mixed()
        for _ in range(100):
            rho = sample_trace_ball(center, 0.2, rng)
            assert trace_distance(rho, center) <= 0.2 + 1e-12
            assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-12
            assert np.real(np.trace(rho.mat)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
    def test_bad_radius(self, rng, radius):
        with pytest.raises(ValidationError):
            sample_trace_ball(maximally_mixed(), radius, rng)

    def test_zero_radius_is_center(self, rng):
        rho = sample_trace_ball(maximally_mixed(), 0.0, rng)
        assert_allclose(rho.mat, maximally_mixed().mat, atol=1e-15)

    def test_radius_too_large_for_center(self):
        # lambda_min of this center is 2.1e-4: at radius 1 every draw
        # leaves the positive cone
        center = random_density(8, seed=0)
        with pytest.raises(ValidationError,
                           match=r"radius 1\.0 .* lambda_min = 2\.089e-04: all 1000 draws"):
            sample_trace_ball(center, 1.0, np.random.default_rng(0))

    def test_one_level_center_rejected(self, rng):
        # a one-level state has no traceless direction to sample along
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="dimension >= 2"):
                sample_trace_ball(maximally_mixed((1,)), 0.1, rng)

    @pytest.mark.parametrize("dim, radius", [(2, 0.1), (3, 0.05), (4, 1e-2), (4, 1e-3),
                                             (4, 0.0), (8, 1e-2), (4, 0.3)])
    def test_same_states_as_per_half_draws(self, dim, radius):
        center = random_density(dim, seed=dim)
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(20):
            rho = sample_trace_ball(center, radius, rng)
            assert rho.dims == center.dims
            assert rho.mat.tobytes() == per_half_trace_ball(center, radius, ref_rng).tobytes()
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_quantum_classical_sampler(self, rng):
        for _ in range(20):
            rho = random_quantum_classical(rng)
            assert np.real(np.trace(rho.mat)) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-12


# both samplers take a Generator or an integer seed, as qstates' samplers do
_SAMPLERS = {
    "trace-ball": lambda rng: sample_trace_ball(maximally_mixed(), 0.1, rng),
    "quantum-classical": random_quantum_classical,
}


@pytest.mark.parametrize("sampler", _SAMPLERS.values(), ids=_SAMPLERS.keys())
@pytest.mark.parametrize("seed", [0, 3])
def test_sampler_integer_seed(sampler, seed):
    want = sampler(np.random.default_rng(seed))
    assert sampler(seed).mat.tobytes() == want.mat.tobytes()


@pytest.mark.parametrize("sampler", _SAMPLERS.values(), ids=_SAMPLERS.keys())
@pytest.mark.parametrize("seed", [-1, 2.5])
def test_sampler_bad_seed(sampler, seed):
    with pytest.raises(ValidationError, match="seed"):
        sampler(seed)


def _euler(a, b, c):
    """Single-qubit unitary Rz(a) Ry(b) Rz(c)."""
    cb, sb = math.cos(b / 2.0), math.sin(b / 2.0)
    rz1 = np.array([np.exp(-0.5j * a), np.exp(0.5j * a)])
    rz2 = np.array([np.exp(-0.5j * c), np.exp(0.5j * c)])
    ry = np.array([[cb, -sb], [sb, cb]], dtype=complex)
    return (rz1[:, None] * ry) * rz2[None, :]


def multistart_singlet_fraction(rho, restarts=12, seed=0):
    """Independent lower bound on the fully entangled fraction: maximize
    <phi+|(U x V)^dag rho (U x V)|phi+> over the 3 + 3 Euler angles of
    U x V by L-BFGS from the four Bell corners plus seeded random starts."""
    phi_plus = bell_state_vectors()[0]

    def overlap(angles):
        w = np.kron(_euler(*angles[:3]), _euler(*angles[3:])) @ phi_plus
        return float(np.real(w.conj() @ rho.mat @ w))

    # identity, sx, sy, sz on side A (up to phase): phi+ onto each Bell state
    corners = [
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        (-math.pi / 2, math.pi, math.pi / 2, 0.0, 0.0, 0.0),
        (0.0, math.pi, 0.0, 0.0, 0.0, 0.0),
        (math.pi, 0.0, 0.0, 0.0, 0.0, 0.0),
    ]
    rng = np.random.default_rng(seed)
    starts = [np.array(c) for c in corners]
    starts += [rng.uniform(0.0, 2.0 * math.pi, size=6) for _ in range(restarts)]
    best = -np.inf
    for s0 in starts:
        res = minimize(lambda a: -overlap(a), s0, method="L-BFGS-B",
                       options={"maxiter": 120})
        best = max(best, -float(res.fun), overlap(s0))
    return best


class TestSingletFraction:
    def test_bell_states_exact(self):
        for state in bell_states():
            assert singlet_fraction(state) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert singlet_fraction(maximally_mixed()) == pytest.approx(0.25, abs=1e-9)

    def test_bell_diagonal_max_weight(self):
        params = random_bell_diagonal(11)
        f = singlet_fraction(bell_diagonal(params))
        assert f == pytest.approx(np.max(params.weights()), abs=1e-4)

    def test_matches_multistart_reference(self, rng):
        # the exact value is an upper bound on every local-rotation overlap
        # and is attained, so the optimizer reaches it from below
        for rank in (1, 2, 3, 4):
            for _ in range(3):
                rho = random_density(4, rank=rank, seed=rng)
                exact = singlet_fraction(rho)
                ref = multistart_singlet_fraction(rho)
                assert exact >= ref - 1e-9
                assert exact == pytest.approx(ref, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    def test_local_unitary_invariance_and_range(self, seed, rank):
        rng = np.random.default_rng(seed)
        rho = random_density(4, rank=rank, seed=rng)
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T, (2, 2), validate=False)
        f = singlet_fraction(rho)
        assert singlet_fraction(rotated) == pytest.approx(f, abs=1e-12)
        assert 0.25 - 1e-12 <= f <= 1.0 + 1e-12

    def test_dims_check(self):
        with pytest.raises(ValidationError):
            singlet_fraction(DensityMatrix(np.eye(4) / 4.0, (4,)))


class TestUnfaithful:
    def test_basics(self):
        assert is_unfaithful(maximally_mixed())
        assert not is_unfaithful(bell_states()[0])

    def test_werner_threshold(self):
        # max Bell weight of werner(p) is 1 - 3p/4, crossing 1/2 at p = 2/3
        assert is_unfaithful(werner(0.67))
        assert not is_unfaithful(werner(0.66))

    def test_ball_members(self, rng):
        center = maximally_mixed()
        for _ in range(20):
            rho = sample_trace_ball(center, teleportation_ball_radius(2), rng)
            assert is_unfaithful(rho)

    def test_same_decisions_as_singlet_fraction_rule(self, rng):
        # the oracle's LMI lambda_min(1/2 - Re rho_M) >= -margin against the
        # rule on the singlet fraction that tel-check prints beside it
        def reference(rho):
            return singlet_fraction(rho) <= 0.5 + TOLS.unfaithful_margin

        states = []
        for rank in (4, 1, 2, 3):
            states += [random_density(4, rank=rank, seed=rng) for _ in range(500)]
        states += [werner(p) for p in 2.0 / 3.0 + np.linspace(-1e-3, 1e-3, 1001)]
        states += [werner(2.0 / 3.0 + d) for d in (-2e-8, -1.3e-8, 0.0, 1e-9, 1e-8)]
        decisions = [is_unfaithful(rho) for rho in states]
        assert decisions == [reference(rho) for rho in states]
        assert 0 < sum(decisions) < len(states)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 3), (3, 0)], ids=["diag", "upper", "lower"])
    def test_non_finite_entry_raises(self, value, entry):
        mat = np.eye(4, dtype=complex) / 4.0
        mat[entry] = value
        with pytest.raises(ValidationError, match="finite"):
            is_unfaithful(DensityMatrix(mat, (2, 2), validate=False))


def _ray(name, role):
    """A ray solve with the non-finite state as rho or as sigma; the other
    end is a state that the set does not contain, so sigma is read."""
    oracle = oracle_by_name(name)
    singlet = bell_diagonal((-1.0, -1.0, -1.0))
    if role == "rho":
        return lambda bad: robustness_along_ray(bad, maximally_mixed(), oracle)
    return lambda bad: robustness_along_ray(singlet, bad, oracle)


# readers of a state's array; the first six raised numpy's LinAlgError
# ("Eigenvalues did not converge") or, for bloch_decompose, returned NaN
# Bloch data (is_ppt and is_unfaithful have their own tests)
_READERS = {
    "bloch_decompose": bloch_decompose,
    "discord_defect": discord_defect,
    "has_zero_discord": has_zero_discord,
    "singlet_fraction": singlet_fraction,
    "zero-discord ray, rho": _ray("zero-discord", "rho"),
    "zero-discord ray, sigma": _ray("zero-discord", "sigma"),
    "trace_distance": lambda bad: trace_distance(bad, maximally_mixed()),
    "bds-axes ray, rho": _ray("bds-axes", "rho"),
    "bds-axes ray, sigma": _ray("bds-axes", "sigma"),
}


_NON_FINITE = [(reader, value) for reader in _READERS
               for value in (math.nan, math.inf, -math.inf)]


class TestNonFiniteStates:
    """A state built with ``validate=False`` can hold NaN or inf; every
    reader raises ValidationError rather than a numpy error or NaN data."""

    @pytest.mark.parametrize("reader, value", _NON_FINITE)
    @pytest.mark.parametrize("entry", [(0, 0), (0, 3), (3, 0)], ids=["diag", "upper", "lower"])
    def test_raises_validation_error(self, reader, value, entry):
        mat = np.eye(4, dtype=complex) / 4.0
        mat[entry] = value
        with pytest.raises(ValidationError, match="finite"):
            _READERS[reader](DensityMatrix(mat, (2, 2), validate=False))


# Bell-diagonal states (0.5, e, 0) whose rays toward 1/4 read
# sqrt(e^2 / 1e-9) - 1 under an absolute defect threshold (2.16, 5.32, 7.85)
_ARTEFACT_BAND = [(0.5, e, 0.0) for e in (1e-4, 2e-4, 2.8e-4)]


def _kernel_ray_states():
    """Random states of rank 1-4, Bell-diagonal states near an axis (middle
    |c| log-uniform in [1e-9, 1e-2]), quantum-classical states and the
    artefact band: members and non-members of both zero-discord sets."""
    rng = np.random.default_rng(22)
    states = [random_density(4, rank=1 + i % 4, seed=rng) for i in range(16)]
    for _ in range(16):
        c = [float(rng.uniform(-0.5, 0.5)), 10.0 ** rng.uniform(-9, -2), 0.0]
        states.append(bell_diagonal(tuple(rng.permutation(c))))
    states += [random_quantum_classical(rng) for _ in range(8)]
    return states + [bell_diagonal(c) for c in _ARTEFACT_BAND + [(0.5, 1e-5, 0.0), (0.5, 5e-9, 0.0)]]


_KERNEL_RAY_STATES = _kernel_ray_states()
# noise in the star kernel of each set: 1/4 for both, and sigma_A x 1/2 for
# zero discord (side B is the measured one)
_KERNEL_NOISES = {
    "zd-white": ("zero-discord", maximally_mixed()),
    "zd-sigma-a": ("zero-discord", DensityMatrix(
        np.kron(random_density(2, seed=7).mat, np.eye(2) / 2.0), (2, 2))),
    "bds-axes-white": ("bds-axes", maximally_mixed()),
}


class TestKernelRays:
    """Toward noise in the star kernel of a zero-discord set, the Bloch weight
    and the defect both scale by 1/(1+s)^2: membership is the same all along
    the ray, so its value is exactly 0 or inf."""

    @pytest.mark.parametrize("case", _KERNEL_NOISES)
    def test_value_is_zero_or_inf(self, case):
        name, sigma = _KERNEL_NOISES[case]
        oracle = oracle_by_name(name)
        members = 0
        for rho in _KERNEL_RAY_STATES:
            res = robustness_along_ray(rho, sigma, oracle)
            if oracle.member(rho):
                members += 1
                assert (res.value, res.iterations) == (0.0, 0)
            else:
                assert (res.value, res.iterations) == (math.inf, 9)
                assert res.free_witness is None
        assert 0 < members < len(_KERNEL_RAY_STATES)

    @pytest.mark.parametrize("c", _ARTEFACT_BAND)
    def test_artefact_band_is_inf(self, c):
        for name in ("zero-discord", "bds-axes"):
            res = robustness_along_ray(bell_diagonal(c), maximally_mixed(), oracle_by_name(name))
            assert res.value == math.inf

    @pytest.mark.parametrize("case", _KERNEL_NOISES)
    def test_membership_is_constant_along_the_ray(self, case):
        name, sigma = _KERNEL_NOISES[case]
        oracle = oracle_by_name(name)
        for rho in _KERNEL_RAY_STATES:
            inside = oracle.member(rho)
            for s in (1e-3, 0.5, 8.0, 1e3):
                mix = DensityMatrix((rho.mat + s * sigma.mat) / (1.0 + s), (2, 2), validate=False)
                assert oracle.member(mix) == inside

    def test_the_two_sets_agree_on_bell_diagonal_states(self):
        rng = np.random.default_rng(23)
        zero_discord, axes = oracle_by_name("zero-discord"), oracle_by_name("bds-axes")
        triples = [random_bell_diagonal(rng).as_tuple() for _ in range(100)]
        for _ in range(100):
            c = [float(rng.uniform(-0.5, 0.5)), 10.0 ** rng.uniform(-9, -2), 0.0]
            triples.append(tuple(rng.permutation(c)))
        # either side of the threshold e^2 = 1e-9 (0.25 + e^2)
        triples += [(0.5, e, 0.0) for e in (1.5e-5, 1.6e-5)] + [(0.5, 0.0, 0.0)]
        agreed = [zero_discord.member(bell_diagonal(c)) for c in triples]
        assert agreed == [axes.member(bell_diagonal(c)) for c in triples]
        assert True in agreed and False in agreed


class TestBdsDetection:
    def test_detects_bell_diagonal(self, rng):
        params = random_bell_diagonal(rng)
        found = bds_params_of(bell_diagonal(params))
        assert found is not None
        assert_allclose(found.as_tuple(), params.as_tuple(), atol=1e-12)

    def test_rejects_general_state(self, rng):
        rho = random_density(4, seed=rng)  # nonzero local vectors almost surely
        assert bds_params_of(rho) is None

    def test_rejects_wrong_dims(self):
        assert bds_params_of(DensityMatrix(np.eye(4) / 4.0, (4,))) is None


class TestOracles:
    def test_registry(self):
        for name in ("ppt", "zero-discord", "unfaithful", "bds-axes"):
            oracle = oracle_by_name(name)
            assert oracle.name == name
            assert np.array_equal(oracle.star_center.mat, np.eye(4) / 4.0)
            assert oracle.member(maximally_mixed())

    @pytest.mark.parametrize("name, attr", [
        ("ppt", "is_ppt"), ("zero-discord", "has_zero_discord"), ("unfaithful", "is_unfaithful"),
    ])
    def test_member_test_read_at_call_time(self, monkeypatch, name, attr):
        # a tracer that rebinds the module's membership tests must see them
        # called by every oracle built afterwards
        def traced(rho):
            return True

        monkeypatch.setattr(free_sets, attr, traced)
        assert oracle_by_name(name).member is traced
        assert oracle_by_name(name) is not oracle_by_name(name)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown free set"):
            oracle_by_name("nonesuch")

    def test_kappa_values(self):
        assert oracle_by_name("ppt").kappa == pytest.approx(1.0 / np.sqrt(12.0))
        assert oracle_by_name("unfaithful").kappa == 0.25
        assert oracle_by_name("zero-discord").kappa is None

    def test_bds_axes_membership(self):
        oracle = oracle_by_name("bds-axes")
        assert oracle.member(bell_diagonal((0.6, 0.0, 0.0)))
        assert not oracle.member(bell_diagonal((0.6, 0.2, 0.0)))
        assert not oracle.member(random_density(4, seed=5))

    def test_bds_axes_refuses_other_dims(self):
        # the set holds two-qubit states only, so a state of other dims is
        # refused, as zero-discord and unfaithful refuse it
        oracle = oracle_by_name("bds-axes")
        for dims in ((2, 3), (3,)):
            mm = maximally_mixed(dims)
            with pytest.raises(ValidationError, match=r"needs dims \(2, 2\)"):
                oracle.member(mm)
            with pytest.raises(ValidationError, match=r"needs dims \(2, 2\)"):
                robustness_along_ray(mm, mm, oracle)

    def test_ppt_sampler_gives_up(self, monkeypatch):
        # rejection sampling has a bound: with no PPT state to find it
        # raises instead of looping
        sampler = oracle_by_name("ppt").sampler
        monkeypatch.setattr(free_sets, "is_ppt", lambda rho: False)
        with pytest.raises(ConfigurationError, match="no PPT state"):
            sampler(np.random.default_rng(0))

    def test_lmi_tolerance_stored_as_float(self):
        # bad tolerances are refused with the other real parameters, in
        # tests/test_config.py
        to_matrix = oracle_by_name("ppt").lmi[0]
        oracle = FreeSetOracle(name="ppt copy", member=is_ppt, lmi=(to_matrix, 0))
        assert oracle.lmi == (to_matrix, 0.0) and type(oracle.lmi[1]) is float
        res = robustness_along_ray(werner(0.0), maximally_mixed(), oracle)
        assert res.value == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("make", [
        lambda L: 5,  # a bare TypeError from unpacking
        lambda L: (L,),  # a bare ValueError
        lambda L: (L, 1e-10, 3),  # a bare ValueError
        lambda L: ("notcallable", 1e-10),  # accepted; the first ray raised TypeError
    ], ids=["number", "one item", "three items", "not callable"])
    def test_malformed_lmi_rejected(self, make):
        lmi = make(oracle_by_name("ppt").lmi[0])
        with pytest.raises(ValidationError, match="^lmi must be a pair"):
            FreeSetOracle(name="ppt copy", member=is_ppt, lmi=lmi)

    def test_bad_star_center_rejected(self):
        with pytest.raises(ConfigurationError, match="star center"):
            FreeSetOracle(
                name="broken", member=lambda rho: False, star_center=maximally_mixed()
            )


class TestStarConvexityProbe:
    """``audit.audit_star_convexity`` on each built-in set and on two custom
    oracles, at a batch of 200 samples x 10 mixing weights."""

    CFG = AuditConfig(samples=200, seed=0)

    def passes(self, name):
        report = audit_star_convexity(oracle_by_name(name), self.CFG)
        assert (report.checked, report.violations, report.first_violation) == (2000, 0, None)
        assert report.passed

    def test_zero_discord_passes(self):
        self.passes("zero-discord")

    def test_ppt_passes(self):
        self.passes("ppt")

    def test_bds_axes_passes(self):
        self.passes("bds-axes")

    def test_unfaithful_passes(self):
        self.passes("unfaithful")

    @staticmethod
    def high_purity():
        # high purity is not preserved by mixing toward a pure center
        return FreeSetOracle(
            name="high-purity",
            member=lambda rho: np.real(np.trace(rho.mat @ rho.mat)) >= 0.9,
            star_center=bell_states()[0],
            sampler=lambda g: random_density(4, rank=1, seed=g),
        )

    def test_broken_set_caught(self):
        report = audit_star_convexity(self.high_purity(), self.CFG)
        assert (report.checked, report.violations) == (2000, 1894)
        assert report.first_violation == "sample 0, delta 0.091: mixture left the set"
        assert not report.passed

    def test_sampler_output_not_a_member_is_a_violation(self):
        oracle = FreeSetOracle(
            name="pure-center",
            member=lambda rho: np.real(np.trace(rho.mat @ rho.mat)) >= 0.99,
            star_center=bell_states()[0],
            sampler=lambda g: maximally_mixed(),
        )
        report = audit_star_convexity(oracle, self.CFG)
        assert (report.checked, report.violations) == (0, 200)
        assert report.first_violation == "sample 0: sampler output is not a member"
        assert not report.passed

    @pytest.mark.parametrize(
        "samples, seed, violations",
        [(1, 0, 10), (5, 1, 50), (37, 7, 346), (37, 123, 352)],
    )
    def test_broken_set_counts(self, samples, seed, violations):
        report = audit_star_convexity(self.high_purity(), AuditConfig(samples, seed))
        assert (report.checked, report.violations) == (10 * samples, violations)
        assert report.first_violation == "sample 0, delta 0.091: mixture left the set"

    def test_empty_audit_fails(self):
        # an audit that mixes nothing checks nothing, so it does not pass
        report = audit_star_convexity(oracle_by_name("ppt"), AuditConfig(samples=0))
        assert (report.checked, report.violations, report.passed) == (0, 0, False)

    @pytest.mark.parametrize(
        "kwargs", [{"samples": -3}, {"samples": 2.5}], ids=["kwargs1", "kwargs2"]
    )
    def test_empty_probe_rejected(self, kwargs):
        # a sample count that is not a whole number >= 0 is refused before any mixing
        with pytest.raises(ValidationError, match="samples"):
            audit_star_convexity(oracle_by_name("ppt"), AuditConfig(**kwargs))

    def test_requires_center_and_sampler(self):
        no_center = FreeSetOracle(name="nc", member=lambda rho: True)
        with pytest.raises(ConfigurationError, match="no star center"):
            audit_star_convexity(no_center, self.CFG)
        no_sampler = FreeSetOracle(
            name="ns", member=lambda rho: True, star_center=maximally_mixed()
        )
        with pytest.raises(ConfigurationError, match="no sampler"):
            audit_star_convexity(no_sampler, self.CFG)

    def test_samples_need_the_center_dims(self):
        oracle = FreeSetOracle(
            name="any", member=lambda rho: True, star_center=maximally_mixed(),
            sampler=lambda g: maximally_mixed((2, 3)),
        )
        with pytest.raises(ValidationError, match=r"^dims mismatch: \(2, 3\) vs \(2, 2\)$"):
            audit_star_convexity(oracle, self.CFG)

    @pytest.mark.parametrize("seed", [-1, 1.5, math.nan, None])
    def test_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            audit_star_convexity(oracle_by_name("ppt"), AuditConfig(samples=1, seed=seed))
