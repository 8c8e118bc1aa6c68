"""Robustness engines: ray bisection, min-scaling, discord closed form and
axis optimization, bounds, Lipschitz constants."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from robustlab.bds import BELL_SIGNS
from robustlab.config import TOLS
from robustlab.errors import (
    IllConditionedError,
    StarConvexityViolationError,
    ValidationError,
)
from robustlab.engines import (
    MAX_AXIS_GRID,
    _axis_pencil_values,
    _min_scaling_values,
    bound_from_kappa_ball,
    discord_levelset_grid,
    discord_robustness_axis_opt,
    discord_robustness_bds,
    discord_robustness_bounds,
    lipschitz_from_kappa_ball,
    lipschitz_teleport,
    min_scaling_robustness,
    robustness_along_ray,
)
from robustlab.free_sets import (
    FreeSetOracle,
    bds_params_of,
    has_zero_discord,
    oracle_by_name,
    teleportation_ball_radius,
)
from robustlab.qstates import (
    PAULI,
    BellDiagonalParams,
    DensityMatrix,
    bell_diagonal,
    bell_states,
    bloch_compose,
    bloch_decompose,
    maximally_mixed,
    random_bell_diagonal,
    random_density,
    trace_distance,
    werner,
)


class TestRayRobustness:
    def test_member_at_origin(self):
        res = robustness_along_ray(maximally_mixed(), maximally_mixed(), oracle_by_name("ppt"))
        assert res.value == 0.0
        assert res.iterations == 0
        assert res.free_witness is maximally_mixed() or res.free_witness.mat is not None

    def test_singlet_toward_white_noise(self):
        res = robustness_along_ray(werner(0.0), maximally_mixed(), oracle_by_name("ppt"))
        assert res.value == pytest.approx(2.0, abs=1e-6)
        assert res.bracket_width <= 1e-6
        assert res.method == "ray-bisection"

    def test_witness_identity(self):
        rho = werner(0.0)
        sigma = maximally_mixed()
        res = robustness_along_ray(rho, sigma, oracle_by_name("ppt"))
        s = res.value
        mix = (rho.mat + s * sigma.mat) / (1.0 + s)
        assert np.max(np.abs(mix - res.free_witness.mat)) <= 1e-12
        assert oracle_by_name("ppt").member(res.free_witness)

    def test_tolerance_override(self):
        res = robustness_along_ray(
            werner(0.0), maximally_mixed(), oracle_by_name("ppt"), tol=1e-3
        )
        assert res.bracket_width <= 1e-3
        assert res.value == pytest.approx(2.0, abs=1e-3)

    def test_unreachable_is_inf(self):
        nothing = FreeSetOracle(name="empty", member=lambda rho: False)
        res = robustness_along_ray(werner(0.0), maximally_mixed(), nothing)
        assert res.value == math.inf
        assert res.free_witness is None
        assert res.bracket_width == math.inf

    def test_non_monotone_detected(self):
        # membership on a distance annulus is entered and left along the ray
        mm = maximally_mixed()
        annulus = FreeSetOracle(
            name="annulus",
            member=lambda rho: 0.3 <= trace_distance(rho, mm) <= 0.5,
        )
        with pytest.raises(StarConvexityViolationError, match="not monotone"):
            robustness_along_ray(werner(0.0), mm, annulus)

    def test_dims_mismatch(self):
        with pytest.raises(ValidationError):
            robustness_along_ray(
                DensityMatrix(np.eye(2) / 2.0, (2,)),
                maximally_mixed(),
                oracle_by_name("ppt"),
            )

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
        {"s_max": 0.0}, {"s_max": -1.0}, {"s_max": math.nan}, {"s_max": math.inf},
    ])
    def test_bisection_parameters_validated(self, kwargs):
        with pytest.raises(ValidationError, match="finite and > 0"):
            robustness_along_ray(werner(0.0), maximally_mixed(), oracle_by_name("ppt"), **kwargs)

    def test_tolerance_below_float_resolution_terminates(self):
        res = robustness_along_ray(
            werner(0.0), maximally_mixed(), oracle_by_name("ppt"), tol=1e-300
        )
        assert res.value == pytest.approx(2.0, abs=1e-8)  # PPT slack 1e-10
        assert res.iterations < 100


def _ray_pairs(rng, n):
    """n rho of rank 1-4, each against 1/4, a random full-rank and a random
    rank-2 noise state."""
    mm = maximally_mixed()
    for i in range(n):
        rho = random_density(4, rank=1 + i % 4, seed=rng)
        for sigma in (mm, random_density(4, seed=rng), random_density(4, rank=2, seed=rng)):
            yield rho, sigma


def _ray_outcome(rho, sigma, oracle):
    try:
        return robustness_along_ray(rho, sigma, oracle)
    except StarConvexityViolationError as exc:
        return exc


def _pencil_root(rho, sigma, oracle):
    """Least real s >= 0 at which (A + t) + s (B + t) is singular, with
    A = L(rho), B = L(sigma) and (L, t) the oracle's ``lmi``: the left end
    of the ray's free interval when rho is not free (on two qubits the
    partial transpose of a state and 1/2 - Re rho_M have at most one
    negative eigenvalue, so no other root comes first)."""
    to_matrix, t = oracle.lmi
    eye = np.eye(rho.dim)
    roots = np.linalg.eigvals(np.linalg.solve(to_matrix(sigma) + t * eye,
                                              -(to_matrix(rho) + t * eye)))
    real = roots.real[(np.abs(roots.imag) <= 1e-9) & (roots.real >= 0.0)]
    return float(real.min()) if real.size else math.inf


def _assert_left_end(res, rho, sigma, oracle):
    """A finite LMI ray value is a member, brackets the pencil root and
    has no free mixture on a 2001-point grid below its bracket."""
    assert 0.0 < res.value < math.inf
    assert oracle.member(res.free_witness)
    root = _pencil_root(rho, sigma, oracle)
    # the root is computed to about 1e-12, the bracket's probes to rounding
    assert res.value - res.bracket_width - 1e-9 <= root <= res.value + 1e-9
    to_matrix, t = oracle.lmi
    s = np.linspace(0.0, res.value - res.bracket_width, 2001)[:, None, None]
    lam = np.linalg.eigvalsh((to_matrix(rho) + s * to_matrix(sigma)) / (1.0 + s))
    assert (lam[:, 0] < -t).all()


class TestRayPencil:
    """Oracles with an ``lmi`` field are probed on their pencil
    L(rho) + s L(sigma); the reference is the same oracle without the
    field, which calls ``member`` on rebuilt mixtures.  The pencil path
    answers its eight scan points with one stacked eigensolve, so these
    comparisons also pin that scan: its flags and its count of probes.
    Where the reference refuses a non-monotone scan, the pencil path,
    whose free mixtures form an interval, answers, and where its scan
    finds no free point toward free noise, Weyl's bound brackets the
    value past s_max."""

    @pytest.mark.parametrize("name", ["ppt", "unfaithful"])
    def test_matches_member_path(self, rng, name):
        oracle = oracle_by_name(name)
        reference = dataclasses.replace(oracle, lmi=None)
        counts = {"zero": 0, "finite": 0, "inf": 0, "answered": 0, "past s_max": 0}
        pairs = 0
        for rho, sigma in _ray_pairs(rng, 200):
            pairs += 1
            got = _ray_outcome(rho, sigma, oracle)
            want = _ray_outcome(rho, sigma, reference)
            if not isinstance(want, Exception) and math.isinf(want.value) and got.value < math.inf:
                # the member path returns its unproven inf here, from a scan
                # with no free point; the noise is free, so the pencil path
                # bisects up to twice the Weyl bound
                assert want.iterations == 9 and oracle.member(sigma)
                assert got.value > 2.0 * rho.dim
                _assert_left_end(got, rho, sigma, oracle)
                counts["past s_max"] += 1
                continue
            if isinstance(want, StarConvexityViolationError):
                # a pattern the member path refuses; the free mixtures
                # form an interval, so the LMI path bisects its left end
                _assert_left_end(got, rho, sigma, oracle)
                counts["answered"] += 1
                continue
            assert not isinstance(got, Exception), got
            if math.isinf(want.value):  # the noise state is not free
                assert not oracle.member(sigma)
            assert got.method == want.method
            if name == "ppt":  # the same float operations: bit-identical
                assert (got.value, got.iterations, got.bracket_width) == (
                    want.value, want.iterations, want.bracket_width)
                assert (got.free_witness is None) == (want.free_witness is None)
                if got.free_witness is not None:
                    assert np.array_equal(got.free_witness.mat, want.free_witness.mat)
            elif math.isinf(want.value):
                assert got.value == math.inf
            else:  # lambda_min(1/2 - X) against 1/2 - lambda_max(X)
                assert abs(got.value - want.value) <= max(got.bracket_width,
                                                          want.bracket_width)
            if math.isfinite(got.value):
                assert oracle.member(got.free_witness)
            counts["zero" if got.value == 0.0 else
                   "finite" if math.isfinite(got.value) else "inf"] += 1
        assert pairs >= 500
        assert min(counts.values()) > 0, counts  # every outcome occurs

    def test_lmi_rays_answer_every_scan_pattern(self):
        # rho and sigma alternately from random_density(4); the member path
        # refuses 57 of the 200 pairs on ppt and 30 on unfaithful, but the
        # free mixtures of an lmi set form an interval, so its ray answers
        rng = np.random.default_rng(7)
        pairs = [(random_density(4, seed=rng), random_density(4, seed=rng))
                 for _ in range(200)]
        for name in ("ppt", "unfaithful"):
            oracle = oracle_by_name(name)
            reference = dataclasses.replace(oracle, lmi=None)
            refused = 0
            for rho, sigma in pairs:
                got = _ray_outcome(rho, sigma, oracle)
                assert not isinstance(got, StarConvexityViolationError), got
                if 0.0 < got.value < math.inf:
                    _assert_left_end(got, rho, sigma, oracle)
                refused += isinstance(_ray_outcome(rho, sigma, reference),
                                      StarConvexityViolationError)
            assert refused > 0, name
        # phi+ noise on the singlet: the mixture is PPT, and has zero
        # discord, only at s = 1; a custom oracle on the set of zero
        # discord, which is not convex, still refuses that scan
        phi, singlet = bell_diagonal((1.0, -1.0, 1.0)), bell_diagonal((-1.0, -1.0, -1.0))
        assert robustness_along_ray(singlet, phi, oracle_by_name("ppt")).value == 1.0
        custom = FreeSetOracle(name="custom", member=has_zero_discord)
        with pytest.raises(StarConvexityViolationError, match="pattern FTFFFFFFF"):
            robustness_along_ray(singlet, phi, custom)

    def test_scan_is_one_eigensolve(self, monkeypatch):
        # one eigvalsh at s = 0, one for the eight scan points and one per
        # bisection step, while ``iterations`` counts every probe
        rho, mm = random_density(4, rank=1, seed=3), maximally_mixed()
        oracle = oracle_by_name("ppt")
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m, *args, **kwargs):
            calls.append(np.shape(m))
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        res = robustness_along_ray(rho, mm, oracle)
        assert 0.0 < res.value < math.inf
        assert len(calls) == res.iterations - 7
        assert calls[1] == (8, 4, 4)

    @pytest.mark.parametrize("name", ["ppt", "unfaithful"])
    def test_noise_inside_the_set_past_s_max_answers(self, name):
        # the noisy singlet reaches the set at s = 20 (PPT) or s = 5
        # (unfaithful, noise singlet fraction 0.475; the 1e-8 margin moves
        # it by 2.4e-6), so the scan up to s_max = 8 (PPT) or 4 finds no
        # member; the noise is free, so one probe at twice the Weyl bound
        # opens the bracket (s_max, top]
        rho = bell_diagonal((-1.0, -1.0, -1.0) if name == "ppt" else (-0.5, -0.5, -0.5))
        sigma = bell_diagonal((-0.3, -0.3, -0.3))
        exact, s_max = (20.0, 8.0) if name == "ppt" else (5.0, 4.0)
        oracle = oracle_by_name(name)
        res = robustness_along_ray(rho, sigma, oracle, s_max=s_max)
        _assert_left_end(res, rho, sigma, oracle)
        assert res.value == pytest.approx(exact, abs=5e-6)
        if name == "ppt":  # no margin moves this value
            assert exact - res.bracket_width <= res.value <= exact
        # a larger s_max finds the point in its scan, within both brackets
        far = robustness_along_ray(rho, sigma, oracle, s_max=4.0 * s_max)
        assert abs(far.value - res.value) <= max(far.bracket_width, res.bracket_width)

    def test_product_noise_matches_a_large_s_max(self):
        # |00><00| is PPT, yet the singlet enters the set only at 49999.5:
        # the block [[s + t(1+s), -1/2], [-1/2, t(1+s)]] of the tolerance
        # t = 1e-10 needs t s^2 near 1/4; the scan of s_max = 1e5 finds it
        singlet = bell_diagonal((-1.0, -1.0, -1.0))
        product = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), (2, 2))
        oracle = oracle_by_name("ppt")
        near, far = (robustness_along_ray(singlet, product, oracle, s_max=s_max)
                     for s_max in (None, 1e5))
        for res in (near, far):
            assert res.value == pytest.approx(49999.5, abs=1e-6)
            _assert_left_end(res, singlet, product, oracle)
        assert near.value - near.bracket_width <= far.value
        assert far.value - far.bracket_width <= near.value

    def test_weyl_bound_overflow_raises(self):
        # t = 0 and lambda_min(L(sigma)) = 5e-324: twice the Weyl bound is
        # inf, so the finiteness check on A + top B refuses it
        singlet = bell_diagonal((-1.0, -1.0, -1.0))
        noise = DensityMatrix(np.diag([5e-324, 1.0 / 3, 1.0 / 3, 1.0 / 3]).astype(complex),
                              (2, 2), validate=False)
        to_matrix = oracle_by_name("ppt").lmi[0]
        assert np.linalg.eigvalsh(to_matrix(noise))[0] == 5e-324
        tight = FreeSetOracle(name="tight", member=lambda r: False, lmi=(to_matrix, 0.0))
        with pytest.raises(ValidationError, match="finite"):
            robustness_along_ray(singlet, noise, tight)

    def test_margin_within_rounding_raises(self):
        # custom pencils with lambda_min(B) = 1e-16: twice the Weyl bound
        # is near 1e16, where rounding in the probe can exceed the margin;
        # such a probe raises, every other ray answers a member or inf
        rng = np.random.default_rng(0)
        rho, sigma = random_density(4, seed=1), maximally_mixed()
        outcomes = set()
        for _ in range(100):
            x = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
            a, b = x + x.conj().transpose(0, 2, 1)
            b = b + (1e-16 - np.linalg.eigvalsh(b)[0]) * np.eye(4)
            lmi = (lambda r, a=a, b=b: a if r is rho else b, 0.0)
            oracle = FreeSetOracle(name="custom", member=lambda r: False, lmi=lmi)
            try:
                res = robustness_along_ray(rho, sigma, oracle)
            except IllConditionedError as exc:
                assert "within rounding of 0" in str(exc)
                outcomes.add("ill-conditioned")
                continue
            if math.isfinite(res.value):
                m = (a + res.value * b) / (1.0 + res.value)
                assert np.linalg.eigvalsh(m)[0] >= 0.0
                outcomes.add("past s_max" if res.value > 8.0 else "finite")
            else:
                outcomes.add("inf")
        assert outcomes == {"ill-conditioned", "past s_max", "finite", "inf"}

    def test_noise_outside_the_set_keeps_inf(self):
        # mixing the singlet with itself never leaves the entangled states
        singlet = bell_diagonal((-1.0, -1.0, -1.0))
        res = robustness_along_ray(singlet, singlet, oracle_by_name("ppt"))
        assert res.value == math.inf
        assert res.free_witness is None

    @pytest.mark.parametrize("name", ["ppt", "unfaithful", "ppt-member", "unfaithful-member",
                                      "zero-discord", "bds-axes"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 3), (3, 0)], ids=["diag", "upper", "lower"])
    def test_non_finite_entry_raises(self, name, value, entry):
        # both kinds of probe: the pencil of an lmi oracle, and ``member``
        # on each mixture (a "-member" name drops the oracle's lmi field);
        # the state is refused when it is made, so no ray is handed one
        mat = np.eye(4, dtype=complex) / 4.0
        mat[entry] = value

        def bad():
            return DensityMatrix(mat, (2, 2), validate=False)

        singlet, mm = bell_diagonal((-1.0, -1.0, -1.0)), maximally_mixed()
        base = name.removesuffix("-member")
        oracle = oracle_by_name(base)
        if base != name:
            oracle = dataclasses.replace(oracle, lmi=None)
        with pytest.raises(ValidationError, match="finite"):
            robustness_along_ray(bad(), mm, oracle)
        with pytest.raises(ValidationError, match="finite"):
            robustness_along_ray(singlet, bad(), oracle)
        # a free rho is no escape
        assert oracle.member(mm)
        with pytest.raises(ValidationError, match="finite"):
            robustness_along_ray(mm, bad(), oracle)

    @pytest.mark.parametrize("name", ["ppt", "unfaithful"])
    def test_overflow_up_to_s_max_raises(self, name):
        # finite noise entries that overflow once scaled by s_max: without
        # the check up front, the probes past the overflow would see inf
        big = DensityMatrix(np.diag([1e3, 0.0, 0.0, 0.0]).astype(complex), (2, 2),
                            validate=False)
        singlet = bell_diagonal((-1.0, -1.0, -1.0))
        with pytest.raises(ValidationError, match="finite"):
            robustness_along_ray(singlet, big, oracle_by_name(name), s_max=1e308)


def independent_min_scaling(rho, sigma, tol=1e-10):
    """Bisection on lambda_min((1+s) sigma - rho) >= 0, written from scratch."""

    def feasible(s):
        return np.linalg.eigvalsh((1.0 + s) * sigma.mat - rho.mat)[0] >= 0.0

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while not feasible(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e9:
            return math.inf
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestMinScaling:
    def test_self_is_zero(self, rng):
        rho = random_density(4, seed=rng)
        assert min_scaling_robustness(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_bell_vs_white_noise(self):
        assert min_scaling_robustness(bell_states()[0], maximally_mixed()) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_diagonal_rank_deficient(self):
        sigma = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]), (2, 2))
        rho = DensityMatrix(np.diag([0.3, 0.7, 0.0, 0.0]), (2, 2))
        assert min_scaling_robustness(rho, sigma) == pytest.approx(0.4, abs=1e-12)

    def test_support_leak_is_inf(self):
        assert min_scaling_robustness(maximally_mixed(), bell_states()[0]) == math.inf

    def test_agrees_with_bisection(self, rng):
        for _ in range(100):
            rho = random_density(4, seed=rng)
            sigma = random_density(4, seed=rng)
            fast = min_scaling_robustness(rho, sigma)
            slow = independent_min_scaling(rho, sigma)
            assert fast == pytest.approx(slow, abs=1e-8)

    def test_random_rank_two_sigma(self, rng):
        # Reference: restrict both states to the range of G, taking its
        # orthonormal basis from a QR of G (no eigensolve of sigma), and
        # solve the 2x2 pencil rho_Q x = mu sigma_Q x; the value is
        # max mu - 1.  A state with weight outside the range gives inf.
        for _ in range(20):
            g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            q, _ = np.linalg.qr(g)
            sigma = g @ g.conj().T
            sigma /= sigma.trace().real
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = q @ h @ h.conj().T @ q.conj().T
            rho /= rho.trace().real
            sig_q, rho_q = q.conj().T @ sigma @ q, q.conj().T @ rho @ q
            mu = np.max(np.linalg.eigvals(np.linalg.solve(sig_q, rho_q)).real)
            got = min_scaling_robustness(
                DensityMatrix(rho, (2, 2)), DensityMatrix(sigma, (2, 2))
            )
            assert got == pytest.approx(max(0.0, mu - 1.0), rel=1e-9, abs=1e-12)
            outside = random_density(4, seed=rng)
            assert min_scaling_robustness(outside, DensityMatrix(sigma, (2, 2))) == math.inf

    def test_dims_mismatch(self):
        with pytest.raises(ValidationError):
            min_scaling_robustness(
                DensityMatrix(np.eye(2) / 2.0, (2,)), maximally_mixed()
            )

    def test_non_hermitian_sigma_rejected(self):
        # sigma's eigensolve reads one triangle only, so hermiticity is
        # checked before it
        mat = np.eye(4, dtype=complex) / 4.0
        mat[0, 1] = 0.1
        sigma = DensityMatrix(mat, (2, 2), validate=False)
        with pytest.raises(ValidationError, match="not hermitian"):
            min_scaling_robustness(maximally_mixed(), sigma)


class TestDiscordClosedForm:
    def test_reference_value(self):
        assert discord_robustness_bds((0.5, 0.3, 0.1)) == 0.3

    def test_single_axis_is_free(self):
        assert discord_robustness_bds((0.0, 0.0, 0.9)) == 0.0

    def test_werner(self):
        for p in (0.0, 0.3, 0.8, 1.0):
            c = -(1.0 - p)
            assert discord_robustness_bds((c, c, c)) == pytest.approx(1.0 - p)

    def test_permutation_and_sign_invariance(self, rng):
        params = random_bell_diagonal(rng)
        c = np.array(params.as_tuple())
        base = discord_robustness_bds(tuple(c))
        assert discord_robustness_bds((c[2], c[0], c[1])) == pytest.approx(base)
        flipped = (-c[0], c[1], -c[2])  # stays in the tetrahedron: flips two signs
        assert discord_robustness_bds(flipped) == pytest.approx(base)


class TestAxisOpt:
    def test_reference_value(self):
        res = discord_robustness_axis_opt((0.5, 0.3, 0.1))
        assert res.value == pytest.approx(0.3, abs=1e-6)
        assert res.method.startswith("axis-opt[a=1")
        assert res.iterations > 0

    def test_origin(self):
        res = discord_robustness_axis_opt((0.0, 0.0, 0.0), grid=16)
        assert res.value <= 1e-6

    def test_matches_closed_form(self, rng):
        for _ in range(60):
            params = random_bell_diagonal(rng)
            res = discord_robustness_axis_opt(params, grid=16)
            assert res.value == pytest.approx(discord_robustness_bds(params), abs=1e-6)

    def test_witnesses(self):
        rho = bell_diagonal((0.5, 0.3, 0.1))
        res = discord_robustness_axis_opt((0.5, 0.3, 0.1))
        s = res.value
        # free witness is a single-axis state and the mixing identity closes
        free_params = bds_params_of(res.free_witness)
        assert free_params is not None
        assert sorted(abs(v) for v in free_params.as_tuple())[1] <= 1e-9
        assert np.linalg.eigvalsh(res.noise_witness.mat)[0] >= -1e-8
        mix = (rho.mat + s * res.noise_witness.mat) / (1.0 + s)
        assert np.max(np.abs(mix - res.free_witness.mat)) <= 1e-8

    def test_bracket_reaches_xatol(self):
        # zooming stops at brackets 1e-9 wide in k
        res = discord_robustness_axis_opt((0.5, 0.3, 0.1), grid=16)
        assert 0.0 < res.bracket_width <= 1e-9
        assert res.value == pytest.approx(0.3, abs=1e-6)

    def test_grid_two(self):
        for params in ((0.5, 0.3, 0.0), (0.5, 0.3, 0.1), (-0.2, 0.6, -0.1)):
            res = discord_robustness_axis_opt(params, grid=2)
            assert res.value == pytest.approx(discord_robustness_bds(params), abs=1e-6)

    def test_tetrahedron_vertices_and_edges(self):
        vertices = [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)]
        for i, a in enumerate(vertices):
            for b in vertices[i:]:
                for t in np.linspace(0.0, 1.0, 9):
                    params = tuple((1.0 - t) * np.array(a) + t * np.array(b))
                    for grid in (2, 16, 64):
                        res = discord_robustness_axis_opt(params, grid=grid)
                        assert res.value == pytest.approx(
                            discord_robustness_bds(params), abs=1e-9
                        ), (params, grid)

    @staticmethod
    def _assert_witnesses(c, res):
        if res.value == 0.0:
            assert res.noise_witness is None
            assert_allclose(res.free_witness.mat, bell_diagonal(c).mat, atol=0)
            return
        tau, s = res.noise_witness.mat, res.value
        assert np.linalg.eigvalsh(tau)[0] >= -TOLS.psd, c
        assert abs(np.trace(tau).real - 1.0) <= 1e-12, c
        mix = (bell_diagonal(c).mat + s * tau) / (1.0 + s)
        assert np.max(np.abs(mix - res.free_witness.mat)) <= 1e-12, c

    @pytest.mark.parametrize("grid", [16, 64])
    def test_single_axis_witness_is_a_state(self, grid):
        # a state with at most one nonzero correlation is an axis state: it
        # is free, with value exactly 0 and no evaluation (the k bracket of
        # a scan would leave a residual value near 1e-11)
        for axis in range(3):
            for k in np.linspace(-1.0, 1.0, 21):
                c = tuple(float(k) if a == axis else 0.0 for a in range(3))
                res = discord_robustness_axis_opt(c, grid=grid)
                assert res.value == 0.0, (c, grid)
                assert (res.iterations, res.bracket_width) == (0, 0.0), (c, grid)
                assert res.method == f"axis-opt[a={axis + 1 if k else 1}]", (c, grid)
                self._assert_witnesses(c, res)

    @pytest.mark.parametrize("grid", [16, 64])
    def test_small_values_keep_value_and_witness(self, grid):
        # a robustness of 1e-11 to 1e-5 is a value, not rounding: it stays,
        # with a witness that is a state
        for small in (1e-5, 1e-7, 1e-9, 1e-11):
            for big in (0.1, 0.5, -0.4, 0.99):
                c = (big, small, 0.0)
                res = discord_robustness_axis_opt(c, grid=grid)
                assert res.value == pytest.approx(small, rel=0.05, abs=1e-9), (c, grid)
                self._assert_witnesses(c, res)

    def test_sub_resolution_xatol_terminates(self):
        # at a Bell state the best k is +-1, where points closer than 4e-9
        # snap to the end, so the bracket stops narrowing 4.1e-9 wide, above
        # the 1e-9 target, and that rule ends the loop after eight zoom rounds
        res = discord_robustness_axis_opt((1.0, -1.0, 1.0), grid=16)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert 1e-9 < res.bracket_width < 1e-8
        assert res.iterations == 840

    def test_iterations_at_grid_16(self):
        # the grid scan and seven zoom rounds of 33 points on three axes
        res = discord_robustness_axis_opt((0.5, 0.3, 0.1), grid=16)
        assert res.iterations == 741

    def test_runs_without_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the axis optimizer ran an eigensolve")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for params in ((0.5, 0.3, 0.1), (1.0, -1.0, 1.0), (0.0, 0.0, 0.0)):
            res = discord_robustness_axis_opt(params, grid=16)
            assert res.value == pytest.approx(discord_robustness_bds(params), abs=1e-6)

    @pytest.mark.parametrize("grid", [1, 0, -3, 2.5, math.nan, math.inf, MAX_AXIS_GRID + 1])
    def test_bad_grid(self, grid):
        with pytest.raises(ValidationError, match="grid"):
            discord_robustness_axis_opt((0.5, 0.3, 0.0), grid=grid)


def axis_state(axis, k):
    """The Bell-diagonal state with the single correlation k on one axis."""
    return bell_diagonal(tuple(float(k) if a == axis else 0.0 for a in range(3)))


def bell_weights(params):
    if not isinstance(params, BellDiagonalParams):
        params = BellDiagonalParams(*params)
    return params.weights()


class TestAxisPencil:
    """The batched evaluator against the scalar engine it replaces."""

    @staticmethod
    def scalar(params, ks):
        rho = bell_diagonal(params)
        return np.array([
            [min_scaling_robustness(rho, axis_state(a, k)) for k in ks[a]]
            for a in range(3)
        ])

    def test_matches_scalar_min_scaling(self, rng):
        # |k| <= 0.99 keeps sigma well conditioned for the scalar engine; the
        # exact k = -1, 0, 1 cover both support decisions (finite and inf)
        edges = [(1.0, -0.2, 0.2), (-0.5, 0.5, 1.0), (1.0, -1.0, 1.0)]
        cases = [random_bell_diagonal(rng) for _ in range(40)] + edges
        for params in cases:
            ks = np.concatenate(
                [rng.uniform(-0.99, 0.99, size=(3, 6)), np.tile([-1.0, 0.0, 1.0], (3, 1))],
                axis=1,
            )
            got = _axis_pencil_values(bell_weights(params), ks)
            want = self.scalar(params, ks)
            assert np.array_equal(np.isinf(got), np.isinf(want)), params
            finite = np.isfinite(want)
            assert_allclose(got[finite], want[finite], rtol=1e-12, atol=1e-12)

    def test_exact_near_the_edges(self, rng):
        # Close to k = +-1 the scalar engine loses relative accuracy in the
        # vanishing eigenvalue of sigma (its error grows like eps/(1 - |k|)),
        # so compare with the exact max_i 4 p_i/(1 + k s_i) - 1 instead.
        signs = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])
        for _ in range(40):
            c = np.array(random_bell_diagonal(rng).as_tuple())
            p = (1.0 + signs @ c) / 4.0
            gap = 10.0 ** rng.uniform(-8, -2, size=(3, 6))  # 1 - |k|
            ks = rng.choice([-1.0, 1.0], size=(3, 6)) * (1.0 - gap)
            got = _axis_pencil_values(bell_weights(c), ks)
            terms = 4.0 * p / (1.0 + ks[..., None] * signs.T[:, None, :])
            want = np.max(terms, axis=-1) - 1.0
            assert_allclose(got, np.maximum(want, 0.0), rtol=1e-12, atol=1e-12)

    def test_bell_states_diagonalize_every_axis(self):
        # the evaluator takes sigma_a(k)'s eigenvalue on Bell state i to be
        # (1 + k S_ai)/4: each Bell state is an eigenvector of every
        # sigma_a x sigma_a with eigenvalue S_ai
        for i, bell in enumerate(bell_states()):
            for a, s in enumerate(PAULI):
                assert_allclose(np.kron(s, s) @ bell.mat, BELL_SIGNS[a][i] * bell.mat,
                                atol=1e-15)

    def test_commuting_form_matches_matrix_form(self, rng):
        # sigma with eigenvalues w and a rho that commutes with it, in
        # sigma's eigenbasis: block diagonal on pairs of equal w (as for the
        # axis pencils); kernel entries of w are exactly 0, and rho puts
        # weight there half the time (a support leak, so inf) and otherwise
        # at most 1e-12, below the leak threshold
        for case in range(300):
            pair = rng.uniform(0.0, 1.0, size=2)
            pair[rng.random(2) < 0.3] = 0.0
            if not pair.any():
                pair[0] = 1.0
            w = np.repeat(pair / (2.0 * pair.sum()), 2)
            blocks = []
            for weight in rng.dirichlet((1.0, 1.0)):
                g = rng.standard_normal((2, rng.integers(1, 3)))
                b = g @ g.T
                blocks.append(weight * b / np.trace(b))
            if case % 2:
                blocks = [np.diag(np.diag(b)) for b in blocks]  # diagonal rho
            if case % 4 < 2:  # keep rho inside the support of sigma
                blocks = [b if p > 0 else 1e-12 * b for b, p in zip(blocks, pair)]
                blocks = [b / sum(np.trace(c) for c in blocks) for b in blocks]
            rot = np.zeros((4, 4))
            rot[:2, :2], rot[2:, 2:] = blocks
            mu = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
            want = _min_scaling_values(rot, w)
            got = _min_scaling_values(mu, w)
            assert np.isinf(got) == np.isinf(want), (w, mu)
            if np.isfinite(want):
                assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_ambiguous_band_raises(self):
        k = 1.0 - 4.0e-10  # vanishing weight (1 - k)/4 = 1e-10 sits in the band
        rho = bell_diagonal((0.5, 0.3, 0.1))
        with pytest.raises(IllConditionedError):
            min_scaling_robustness(rho, axis_state(0, k))
        with pytest.raises(IllConditionedError):
            _axis_pencil_values(bell_weights((0.5, 0.3, 0.1)), np.full((3, 1), k))


class TestLevelsetGrid:
    def test_matches_brute_force(self):
        r, n = 0.25, 5
        data = np.asarray(discord_levelset_grid(r, n))
        axis = np.linspace(-1.0, 1.0, n)
        expect = []
        for c1 in axis:
            for c2 in axis:
                for c3 in axis:
                    w = [
                        (1 + c1 - c2 + c3) / 4,
                        (1 - c1 + c2 + c3) / 4,
                        (1 + c1 + c2 - c3) / 4,
                        (1 - c1 - c2 - c3) / 4,
                    ]
                    if min(w) < -1e-12:
                        continue
                    value = sorted(abs(v) for v in (c1, c2, c3))[1]
                    expect.append([c1, c2, c3, value, float(value <= r + 1e-12)])
        assert_allclose(data, np.array(expect), atol=1e-14)

    def test_corner_rows(self):
        data = np.asarray(discord_levelset_grid(0.3, 2))
        assert data.shape == (4, 5)  # only the four Bell corners survive
        assert_allclose(data[:, 3], 1.0)
        assert_allclose(data[:, 4], 0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            discord_levelset_grid(-0.1, 5)
        with pytest.raises(ValidationError):
            discord_levelset_grid(0.3, 1)


class TestBounds:
    def test_bell_diagonal_tight(self, rng):
        params = random_bell_diagonal(rng)
        lo, hi = discord_robustness_bounds(bell_diagonal(params))
        exact = discord_robustness_bds(params)
        assert lo == pytest.approx(exact, abs=1e-9)
        assert hi == pytest.approx(exact, abs=1e-9)

    def test_handcrafted_offset(self):
        from robustlab.qstates import BlochTwoQubit

        rho = bloch_compose(
            BlochTwoQubit(
                x=np.array([0.05, 0.0, 0.0]),
                y=np.zeros(3),
                T=np.diag([0.5, 0.3, 0.1]),
            )
        )
        lo, hi = discord_robustness_bounds(rho)
        assert lo == pytest.approx(0.1, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed(self):
        assert discord_robustness_bounds(maximally_mixed()) == (0.0, 0.0)

    def test_ordering(self, rng):
        for _ in range(100):
            lo, hi = discord_robustness_bounds(random_density(4, seed=rng))
            assert 0.0 <= lo <= hi


class TestLipschitzConstants:
    def test_kappa_ball(self):
        const = lipschitz_from_kappa_ball(maximally_mixed(), 1.0 / math.sqrt(12.0))
        assert const.L == pytest.approx(math.sqrt(27.0 / 4.0), abs=1e-12)
        assert "kappa-ball" in const.provenance

    def test_kappa_ball_bound(self):
        bound = bound_from_kappa_ball(maximally_mixed(), 1.0 / math.sqrt(12.0))
        assert bound == pytest.approx(2.0 * math.sqrt(27.0 / 4.0) - 1.0, abs=1e-12)

    def test_teleport(self):
        assert lipschitz_teleport(2).L == 3.0
        assert lipschitz_teleport(3).L == 4.0
        with pytest.raises(ValidationError):
            lipschitz_teleport(1)

    def test_teleport_constants_are_the_kappa_ball_rule(self):
        # at the center 1/d^2 with radius (d-1)/d^2 the kappa-ball rule gives
        # d + 1, and its uniform bound 2d + 1, to the last bit
        for d in (2, 3, 4):
            center, kappa = maximally_mixed((d, d)), teleportation_ball_radius(d)
            assert lipschitz_teleport(d).L == lipschitz_from_kappa_ball(center, kappa).L
        assert bound_from_kappa_ball(maximally_mixed((2, 2)), teleportation_ball_radius(2)) == 5.0
        assert bound_from_kappa_ball(maximally_mixed((3, 3)), teleportation_ball_radius(3)) == 7.0

    def test_kappa_ball_constants_bound_the_exact_ones(self):
        # kappa is the Gurvits-Barnum Frobenius radius 1/sqrt(12) for PPT and
        # the operator-norm radius 1/4 for the unfaithful set; the exact
        # trace-norm constants of the rays toward 1/4 are 1 + sqrt(2) and 2
        mm = maximally_mixed()
        for name, exact, shipped in (("ppt", 1.0 + math.sqrt(2.0), math.sqrt(27.0 / 4.0)),
                                     ("unfaithful", 2.0, 3.0)):
            oracle = oracle_by_name(name)
            L = lipschitz_from_kappa_ball(oracle.star_center, oracle.kappa).L
            assert L == pytest.approx(shipped, abs=1e-12)
            assert L >= exact
        # the largest trace-norm balls around 1/4, radii sqrt(2) - 1 and 1/2,
        # give 1.81 and 1.5: the formula holds only with the smaller radii
        assert lipschitz_from_kappa_ball(mm, math.sqrt(2.0) - 1.0).L < 1.0 + math.sqrt(2.0)
        assert lipschitz_from_kappa_ball(mm, 0.5).L < 2.0

    def test_kappa_validation(self):
        with pytest.raises(ValidationError):
            lipschitz_from_kappa_ball(maximally_mixed(), 0.0)
        with pytest.raises(ValidationError):
            bound_from_kappa_ball(maximally_mixed(), -0.1)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [lipschitz_from_kappa_ball, bound_from_kappa_ball])
    def test_non_finite_kappa(self, build, kappa):
        with pytest.raises(ValidationError, match="kappa must be finite"):
            build(maximally_mixed(), kappa)

    @pytest.mark.parametrize("d", [2.5, math.nan, math.inf, 1, -3])
    @pytest.mark.parametrize("build", [lipschitz_teleport])
    def test_bad_teleport_dim(self, build, d):
        with pytest.raises(ValidationError, match="must be an integer >= 2"):
            build(d)
