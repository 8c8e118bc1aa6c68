"""Empirical audits: Lipschitz, faithfulness, monotonicity, convexity."""

import math
import re

import numpy as np
import pytest

from robustlab.audit import (
    MAX_AUDIT_SAMPLES,
    AuditConfig,
    ConvexityReport,
    LipschitzReport,
    MonotonicityReport,
    audit_convexity,
    audit_faithfulness,
    audit_lipschitz,
    audit_monotonicity,
    channel_depolarizing,
    channel_local_unitary,
    channel_measure_prepare_b,
    default_channels,
    discord_axis_endpoint_pairs,
    discord_filtered_measure,
    lipschitz_pairs,
    ray_measure,
)
from robustlab.config import TOLS
from robustlab.engines import discord_robustness_bds, robustness_along_ray
from robustlab.errors import ConfigurationError, ValidationError
from robustlab.free_sets import bds_params_of, oracle_by_name, sample_trace_ball
from robustlab.operator_core import partial_transpose, trace_norm
from robustlab.qstates import (
    DensityMatrix,
    maximally_mixed,
    random_density,
    trace_distance,
    werner,
)


def per_state_density(rng, rank=None):
    """Reference: one random two-qubit state from two ``standard_normal``
    calls, the real and then the imaginary half of G."""
    rank = 4 if rank is None else rank
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = g @ g.conj().T
    m /= m.trace().real
    return DensityMatrix(m, (2, 2), validate=False)


def per_state_lipschitz_pairs(cfg):
    """Reference: the Lipschitz batch drawn state by state."""
    rng = np.random.default_rng(cfg.seed)
    pairs = []
    for _ in range(cfg.samples):
        pairs.append(("independent", per_state_density(rng), per_state_density(rng)))
    for eps in (1e-2, 1e-3):
        for _ in range(cfg.samples):
            center = per_state_density(rng)
            pairs.append((f"nearby[{eps:g}]", center, sample_trace_ball(center, eps, rng)))
    smooth = 5e-3
    for _ in range(cfg.samples):
        edge = per_state_density(rng, rank=3)
        inner = DensityMatrix(
            (1.0 - smooth) * edge.mat + smooth * np.eye(4) / 4, edge.dims, validate=False
        )
        pairs.append(("boundary-straddle", edge, inner))
    return pairs


def per_pair_lipschitz(measure, L, cfg, pairs):
    """Reference: the Lipschitz report with one trace norm per pair."""
    rows = [(measure(r1), measure(r2), trace_norm(r1.mat - r2.mat)) for _, r1, r2 in pairs]
    tested = violations = skipped = 0
    max_ratio = 0.0
    worst = None
    for (regime, r1, r2), (m1, m2, dist) in zip(pairs, rows):
        if not (math.isfinite(m1) and math.isfinite(m2)) or dist <= TOLS.audit_zero:
            skipped += 1
            continue
        tested += 1
        ratio = abs(m1 - m2) / dist
        if ratio > max_ratio:
            max_ratio = ratio
            worst = (regime, r1, r2, m1, m2, dist)
        if ratio > L * (1.0 + TOLS.lipschitz_violation_slack):
            violations += 1
    return LipschitzReport(L, tested, max_ratio, worst, violations, skipped)


def per_state_convexity_pairs(cfg):
    """Reference: the convexity batch drawn state by state."""
    rng = np.random.default_rng(cfg.seed)
    return [(per_state_density(rng), per_state_density(rng)) for _ in range(cfg.samples)]


def per_state_monotonicity_states(oracle, cfg):
    """Reference: the monotonicity batch drawn state by state after the
    channel probes."""
    rng = np.random.default_rng(cfg.seed)
    for _ in range(min(cfg.samples, 16)):
        oracle.sampler(rng)
    return [per_state_density(rng) for _ in range(cfg.samples)]


def frozen(x):
    """A report as nested tuples: states by their bytes and dims, floats by
    repr (exact, and NaN equal to itself)."""
    if isinstance(x, DensityMatrix):
        return ("state", x.mat.tobytes(), x.dims)
    if isinstance(x, (tuple, list)):
        return tuple(frozen(v) for v in x)
    if isinstance(x, dict):
        return tuple((k, frozen(v)) for k, v in x.items())
    if hasattr(x, "__dataclass_fields__"):
        return (type(x).__name__,) + tuple(
            (f, frozen(getattr(x, f))) for f in x.__dataclass_fields__
        )
    if isinstance(x, float):
        return repr(x)
    return x


def negativity_or_inf(rho):
    """A cheap measure with infinite values: -lambda_min of the partial
    transpose plus a population, infinite when rho_00 > 0.45."""
    if rho.mat[0, 0].real > 0.45:
        return math.inf
    w = np.linalg.eigvalsh(partial_transpose(rho.mat, (2, 2), 1))
    return max(0.0, -float(w[0])) + float(rho.mat[1, 1].real)


_PARITY = [(seed, samples) for seed in (0, 1, 7, 123) for samples in (0, 1, 2, 5, 25, 75)]


class TestStackedBatches:
    """Batches drawn and measured as stacked arrays give the same pairs and
    reports, to the bit, as drawing and measuring state by state."""

    @pytest.mark.parametrize("seed, samples", _PARITY)
    def test_lipschitz(self, seed, samples):
        cfg = AuditConfig(samples=samples, seed=seed)
        pairs = lipschitz_pairs(cfg)
        ref = per_state_lipschitz_pairs(cfg)
        assert frozen(pairs) == frozen(ref)
        for L in (0.3, 0.9):
            got = audit_lipschitz(negativity_or_inf, L, cfg)
            assert frozen(got) == frozen(per_pair_lipschitz(negativity_or_inf, L, cfg, ref))

    @pytest.mark.parametrize("seed, samples", _PARITY)
    def test_convexity(self, seed, samples):
        cfg = AuditConfig(samples=samples, seed=seed)
        extra = discord_axis_endpoint_pairs()
        got = audit_convexity(negativity_or_inf, cfg, extra_pairs=extra)
        ref = audit_convexity(
            negativity_or_inf, AuditConfig(samples=0),
            extra_pairs=extra + per_state_convexity_pairs(cfg),
        )
        assert frozen(got) == frozen(ref)

    @pytest.mark.parametrize("seed, samples", _PARITY)
    def test_monotonicity(self, seed, samples):
        cfg = AuditConfig(samples=samples, seed=seed)
        oracle = oracle_by_name("ppt")
        seen = []

        def recorded(rho):
            seen.append(rho)
            return negativity_or_inf(rho)

        got = audit_monotonicity(recorded, default_channels(seed), oracle, cfg)
        states = per_state_monotonicity_states(oracle, cfg)
        channels = default_channels(seed)
        # the base states, then each channel's image of them
        expected = states + [ch(s) for _, ch in channels for s in states]
        assert frozen(seen) == frozen(expected)
        base = [negativity_or_inf(s) for s in states]
        checked = skipped = violations = 0
        worst = 0.0
        per_channel = {name: 0 for name, _ in channels}
        for name, ch in channels:
            for v0, s in zip(base, states):
                v1 = negativity_or_inf(ch(s))
                if not (math.isfinite(v0) and math.isfinite(v1)):
                    skipped += 1
                    continue
                checked += 1
                worst = max(worst, v1 - v0)
                if v1 - v0 > 2.0 * TOLS.ray_bisection:
                    violations += 1
                    per_channel[name] += 1
        ref = MonotonicityReport(
            tuple(per_channel), checked, violations, per_channel, worst, skipped
        )
        assert frozen(got) == frozen(ref)

    def test_empty_batches(self):
        cfg = AuditConfig(samples=0, seed=3)
        measure = ray_measure(maximally_mixed(), oracle_by_name("ppt"))
        assert lipschitz_pairs(cfg) == []
        assert audit_lipschitz(measure, 1.0, cfg) == LipschitzReport(1.0, 0, 0.0, None, 0, 0)
        assert audit_convexity(measure, cfg) == ConvexityReport(0, 0, -math.inf, None)
        rep = audit_monotonicity(measure, default_channels(3), oracle_by_name("ppt"), cfg)
        assert (rep.checked, rep.violations, rep.infinite_skipped, rep.worst_increase) == (
            0, 0, 0, 0.0
        )

    def test_empty_batch_makes_no_eigensolve(self, monkeypatch):
        def refuse(a):
            raise AssertionError("eigensolve on an empty batch")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rep = audit_lipschitz(lambda rho: 0.0, 1.0, AuditConfig(samples=0))
        assert rep.pairs_tested == 0


def bds_measure(rho):
    params = bds_params_of(rho)
    assert params is not None
    return discord_robustness_bds(params)


class TestAuditConfig:
    def test_accepts_boundary_values(self):
        assert AuditConfig(seed=0).seed == 0
        assert AuditConfig(seed=2.0).seed == 2  # an integral float is an integer

    def test_tolerance_field_removed(self):
        # it meant a relative slack, an absolute zero or an allowed gap,
        # depending on the audit; each audit reads its threshold from TOLS
        with pytest.raises(TypeError, match="tolerance"):
            AuditConfig(tolerance=0.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, math.nan, math.inf])
    def test_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            AuditConfig(seed=seed)

    @pytest.mark.parametrize("samples", [-3, 2.5, math.nan, math.inf])
    def test_bad_samples(self, samples):
        with pytest.raises(ValidationError, match="samples"):
            AuditConfig(samples=samples)

    def test_samples_cap(self):
        assert MAX_AUDIT_SAMPLES == 1000
        assert AuditConfig(samples=MAX_AUDIT_SAMPLES).samples == MAX_AUDIT_SAMPLES

    @pytest.mark.parametrize("samples", [MAX_AUDIT_SAMPLES + 1, 10**18])
    def test_samples_past_cap(self, samples):
        # the batch is rejected when configured, before any state is drawn
        with pytest.raises(ValidationError, match="at most 1000"):
            AuditConfig(samples=samples)


class TestLipschitzPairs:
    def test_regimes(self):
        pairs = lipschitz_pairs(AuditConfig(samples=5, seed=1))
        assert len(pairs) == 20
        regimes = {r for r, _, _ in pairs}
        assert regimes == {
            "independent", "nearby[0.01]", "nearby[0.001]", "boundary-straddle"
        }

    def test_deterministic(self):
        a = lipschitz_pairs(AuditConfig(samples=3, seed=7))
        b = lipschitz_pairs(AuditConfig(samples=3, seed=7))
        for (_, r1, r2), (_, s1, s2) in zip(a, b):
            assert np.array_equal(r1.mat, s1.mat)
            assert np.array_equal(r2.mat, s2.mat)


class TestAuditLipschitz:
    def test_filtered_measure_within_four(self):
        rep = audit_lipschitz(discord_filtered_measure, 4.0, AuditConfig(samples=30))
        assert rep.passed
        assert rep.violations == 0
        assert rep.L_claimed == 4.0
        assert 0.0 < rep.max_ratio <= 4.0
        assert rep.worst_pair is not None

    def test_deterministic(self):
        cfg = AuditConfig(samples=20, seed=3)
        a = audit_lipschitz(discord_filtered_measure, 4.0, cfg)
        b = audit_lipschitz(discord_filtered_measure, 4.0, cfg)
        assert a.max_ratio == b.max_ratio
        assert a.pairs_tested == b.pairs_tested

    def test_constant_measure(self):
        rep = audit_lipschitz(lambda rho: 1.0, 0.1, AuditConfig(samples=10))
        assert rep.passed
        assert rep.max_ratio == 0.0

    def test_custom_pairs_known_ratio(self):
        # |R(werner(0.2)) - R(werner(0.3))| / ||difference|| = 0.1 / 0.15
        pairs = [("custom", werner(0.2), werner(0.3))]
        cfg = AuditConfig()
        good = audit_lipschitz(bds_measure, 0.7, cfg, pairs=pairs)
        assert good.passed
        assert good.max_ratio == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert good.worst_pair[0] == "custom"
        bad = audit_lipschitz(bds_measure, 0.5, cfg, pairs=pairs)
        assert not bad.passed
        assert bad.violations == 1

    @pytest.mark.parametrize("L", [math.nan, -1.0, math.inf, -math.inf])
    def test_bad_constant(self, L):
        def measure(rho):
            raise AssertionError("evaluated before the constant was checked")

        with pytest.raises(ValidationError, match="L must be finite and >= 0"):
            audit_lipschitz(measure, L, AuditConfig(samples=2))

    def test_zero_constant_accepted(self):
        rep = audit_lipschitz(lambda rho: 1.0, 0.0, AuditConfig(samples=2))
        assert rep.passed and rep.L_claimed == 0.0

    def test_infinite_values_skipped(self):
        rep = audit_lipschitz(lambda rho: math.inf, 1.0, AuditConfig(samples=5))
        assert rep.pairs_tested == 0
        assert rep.infinite_skipped == 20
        assert not rep.passed  # nothing tested is not a pass

    def test_distance_checks_each_pair(self):
        rho = werner(0.2)
        skew = rho.mat.copy()
        skew[0, 3] += 1e-6  # no longer Hermitian
        bad = DensityMatrix(skew, (2, 2), validate=False)
        pairs = [("good", werner(0.3), rho), ("skew", rho, bad)]
        with pytest.raises(ValidationError, match="not hermitian"):
            audit_lipschitz(bds_measure, 1.0, AuditConfig(), pairs=pairs)
        nan = rho.mat.copy()
        nan[1, 1] = math.nan
        # the state is refused when it is made, so no pair can hold it
        with pytest.raises(ValidationError, match="finite"):
            pairs = [("nan", DensityMatrix(nan, (2, 2), validate=False), rho)]
            audit_lipschitz(lambda r: 0.0, 1.0, AuditConfig(), pairs=pairs)

    def test_distance_needs_equal_dims(self):
        pairs = [("good", werner(0.2), werner(0.3)),
                 ("split", maximally_mixed(), maximally_mixed((4,)))]
        with pytest.raises(ValidationError, match=r"\(2, 2\) vs \(4,\)"):
            audit_lipschitz(lambda r: 0.0, 1.0, AuditConfig(), pairs=pairs)

    def test_mixed_sizes(self):
        pairs = [("four", werner(0.2), werner(0.3)),
                 ("two", maximally_mixed((2,)), DensityMatrix(np.diag([0.7, 0.3]), (2,)))]
        values = {4: 1.0, 2: 2.0}
        rep = audit_lipschitz(lambda r: values[r.dim] + r.mat[0, 0].real, 5.0, AuditConfig(),
                              pairs=pairs)
        # ratios 0.025/0.15 and 0.2/0.4
        assert rep.pairs_tested == 2
        assert rep.max_ratio == pytest.approx(0.5, abs=1e-12)


class TestRayMeasure:
    def test_ppt_ray_within_ball_constant(self):
        measure = ray_measure(maximally_mixed(), oracle_by_name("ppt"))
        rep = audit_lipschitz(measure, math.sqrt(27.0 / 4.0), AuditConfig(samples=15))
        assert rep.passed
        assert rep.max_ratio <= math.sqrt(27.0 / 4.0)

    @staticmethod
    def steepest_pairs():
        """Pairs rho_alpha +- 1e-3 D where the PPT ray toward 1/4 is steepest.

        x = cos(pi/8)|00> + sin(pi/8)|11> is the negative eigenvector of
        rho_alpha^Gamma, with rho_alpha = (alpha 1 - (xx^dag)^Gamma)/(4 alpha - 1),
        so the ray's value is -4 lambda_min(rho^Gamma) near rho_alpha and its
        gradient is -4 (xx^dag)^Gamma.  D = (uu^dag - vv^dag)/2, from that
        gradient's top and bottom eigenvectors, has trace norm 1 and the
        largest directional derivative, half the spread: 1 + sqrt(2).
        """
        x = np.zeros(4)
        x[0], x[3] = math.cos(math.pi / 8), math.sin(math.pi / 8)
        x_gamma = partial_transpose(np.outer(x, x), (2, 2), 1)
        vecs = np.linalg.eigh(-4.0 * x_gamma)[1]
        u, v = vecs[:, -1], vecs[:, 0]
        d = (np.outer(u, u) - np.outer(v, v)) / 2.0
        pairs = []
        for alpha in (0.87, 0.93, 0.99):
            rho = (alpha * np.eye(4) - x_gamma) / (4.0 * alpha - 1.0)
            pairs.append((f"steepest[{alpha}]", DensityMatrix(rho + 1e-3 * d, (2, 2)),
                          DensityMatrix(rho - 1e-3 * d, (2, 2))))
        return pairs

    def test_steepest_pairs_reach_one_plus_sqrt2(self):
        ppt = oracle_by_name("ppt")
        for _, r1, r2 in self.steepest_pairs():
            m1 = robustness_along_ray(r1, maximally_mixed(), ppt, tol=1e-12).value
            m2 = robustness_along_ray(r2, maximally_mixed(), ppt, tol=1e-12).value
            ratio = abs(m1 - m2) / trace_norm(r1.mat - r2.mat)
            assert ratio == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-6)

    def test_audit_sees_a_constant_below_the_steepest_ratio(self):
        # the sampled batch of audit --check lipschitz --samples 1000 reads
        # max_ratio 2.0426 at seed 0, so it passes L = 2.4 < 1 + sqrt(2);
        # the steepest pairs fail it, and the kappa-ball constant passes
        measure = ray_measure(maximally_mixed(), oracle_by_name("ppt"))
        pairs = self.steepest_pairs()
        low = audit_lipschitz(measure, 2.4, AuditConfig(), pairs=pairs)
        assert low.violations == 3
        assert low.max_ratio == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-4)
        ball = audit_lipschitz(measure, math.sqrt(27.0 / 4.0), AuditConfig(), pairs=pairs)
        assert ball.passed


class TestAuditFaithfulness:
    def test_filtered_measure_vs_zero_discord(self):
        rep = audit_faithfulness(
            discord_filtered_measure, oracle_by_name("zero-discord"), AuditConfig(samples=30)
        )
        assert rep.passed
        assert rep.free_checked == 30
        assert rep.nonfree_checked == 30
        assert rep.worst_free_value <= 1e-9

    def test_ppt_ray_vs_ppt(self):
        measure = ray_measure(maximally_mixed(), oracle_by_name("ppt"))
        rep = audit_faithfulness(measure, oracle_by_name("ppt"), AuditConfig(samples=20))
        assert rep.passed
        assert rep.worst_free_value == 0.0

    def test_negative_control(self):
        mm = maximally_mixed()
        rep = audit_faithfulness(
            lambda rho: trace_distance(rho, mm),
            oracle_by_name("zero-discord"),
            AuditConfig(samples=10),
        )
        assert not rep.passed
        assert rep.free_nonzero > 0

    @pytest.mark.parametrize("samples", [0])
    def test_empty_audit_fails(self, samples):
        measure = ray_measure(maximally_mixed(), oracle_by_name("ppt"))
        rep = audit_faithfulness(measure, oracle_by_name("ppt"), AuditConfig(samples=samples))
        assert (rep.free_checked, rep.nonfree_checked) == (0, 0)
        assert not rep.passed

    def test_requires_sampler(self):
        from robustlab.free_sets import FreeSetOracle

        bare = FreeSetOracle(name="bare", member=lambda rho: True)
        with pytest.raises(ConfigurationError):
            audit_faithfulness(discord_filtered_measure, bare, AuditConfig())


def cnot_channel():
    u = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )

    def ch(rho):
        return DensityMatrix(u @ rho.mat @ u.conj().T, rho.dims, validate=False)

    return ch


class TestAuditMonotonicity:
    def test_filtered_measure_passes(self):
        rep = audit_monotonicity(
            discord_filtered_measure,
            default_channels(),
            oracle_by_name("zero-discord"),
            AuditConfig(samples=12),
        )
        assert rep.passed
        assert rep.checked == 36
        assert set(rep.per_channel) == set(rep.channels)

    def test_ppt_ray_passes(self):
        measure = ray_measure(maximally_mixed(), oracle_by_name("ppt"))
        rep = audit_monotonicity(
            measure, default_channels(), oracle_by_name("ppt"), AuditConfig(samples=8)
        )
        assert rep.passed

    def test_non_monotone_measure_flagged(self):
        mm = maximally_mixed()
        rep = audit_monotonicity(
            lambda rho: -trace_distance(rho, mm),
            [("depolarizing[0.3]", channel_depolarizing(0.3))],
            oracle_by_name("ppt"),
            AuditConfig(samples=8),
        )
        assert not rep.passed
        assert rep.violations > 0
        assert rep.worst_increase > 0

    def test_requires_sampler(self):
        from robustlab.free_sets import FreeSetOracle

        bare = FreeSetOracle(name="bare", member=lambda rho: True)
        with pytest.raises(ConfigurationError, match="no sampler"):
            audit_monotonicity(discord_filtered_measure, default_channels(), bare,
                               AuditConfig(samples=4))

    def test_set_breaking_channel_rejected(self):
        with pytest.raises(ConfigurationError, match="maps a free state out"):
            audit_monotonicity(
                discord_filtered_measure,
                [("cnot", cnot_channel())],
                oracle_by_name("zero-discord"),
                AuditConfig(samples=8),
            )

    def test_channel_validation(self):
        for q in (1.5, math.nan):
            with pytest.raises(ValidationError, match="depolarizing weight"):
                channel_depolarizing(q)


@pytest.mark.parametrize("seed", [-1, 1.5, math.nan, None])
def test_default_channels_bad_seed(seed):
    with pytest.raises(ValidationError, match="seed"):
        default_channels(seed)


class TestChannels:
    def test_local_unitary_preserves_spectrum(self, rng):
        from robustlab.qstates import random_unitary

        ch = channel_local_unitary(random_unitary(2, 1), random_unitary(2, 2))
        rho = random_density(4, seed=rng)
        out = ch(rho)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.mat), np.linalg.eigvalsh(rho.mat), atol=1e-12
        )

    def test_depolarizing_endpoint(self, rng):
        rho = random_density(4, seed=rng)
        np.testing.assert_allclose(
            channel_depolarizing(1.0)(rho).mat, np.eye(4) / 4.0, atol=1e-12
        )

    def test_measure_prepare_matches_projector_formula(self, rng):
        # reference: sum_j (1 x |j><j|) rho (1 x |j><j|)
        def reference(mat, d_a, d_b):
            out = np.zeros_like(mat)
            for j in range(d_b):
                ket = np.eye(d_b)[:, j]
                proj = np.kron(np.eye(d_a), np.outer(ket, ket))
                out += proj @ mat @ proj
            return out

        ch = channel_measure_prepare_b()
        for dims in ((2, 2), (2, 3), (3, 2), (1, 4), (4, 1)):
            d = dims[0] * dims[1]
            for _ in range(20):
                rho = random_density(d, seed=rng)
                rho = DensityMatrix(rho.mat, dims, validate=False)
                out = ch(rho)
                assert out.dims == dims
                np.testing.assert_array_equal(out.mat, reference(rho.mat, *dims))

    @pytest.mark.parametrize(
        "u_a, match",
        [
            (2.0 * np.eye(2), "u_a is not unitary"),        # maps werner(0.2) to trace 4
            (np.ones((2, 3)), "square matrix"),
            (np.full((2, 2), math.nan), "finite"),
            (np.array([[1.0, 1e-9], [0.0, 1.0]]), "u_a is not unitary"),
        ],
    )
    def test_local_unitary_refuses_a_bad_factor(self, u_a, match):
        with pytest.raises(ValidationError, match=match):
            channel_local_unitary(u_a, np.eye(2))

    def test_local_unitary_refuses_a_state_of_other_dims(self):
        # a 3x3 factor made numpy's matmul raise ValueError on a two-qubit state
        ch = channel_local_unitary(np.eye(3), np.eye(2))
        with pytest.raises(ValidationError, match=r"dims \(3, 2\), got dims \(2, 2\)"):
            ch(werner(0.2))
        assert ch(DensityMatrix(np.eye(6) / 6.0, (3, 2))).dims == (3, 2)

    @pytest.mark.parametrize("dims", [(4,), (2, 2, 1)])
    def test_measure_prepare_refuses_a_state_that_is_not_bipartite(self, dims):
        with pytest.raises(ValidationError, match="bipartite"):
            channel_measure_prepare_b()(DensityMatrix(np.eye(4) / 4.0, dims))

    def test_measure_prepare_kills_coherence(self, rng):
        rho = random_density(4, seed=rng)
        out = channel_measure_prepare_b()(rho)
        # B-side off-diagonal blocks vanish
        m = out.mat.reshape(2, 2, 2, 2)
        assert np.max(np.abs(m[:, 0, :, 1])) <= 1e-14
        assert np.real(np.trace(out.mat)) == pytest.approx(1.0, abs=1e-12)


class TestAuditConvexity:
    def test_ppt_ray_is_convex(self):
        measure = ray_measure(maximally_mixed(), oracle_by_name("ppt"))
        rep = audit_convexity(measure, AuditConfig(samples=10))
        assert rep.passed
        assert rep.violations == 0

    def test_axis_endpoints_break_discord_convexity(self):
        rep = audit_convexity(
            bds_measure, AuditConfig(samples=0), extra_pairs=discord_axis_endpoint_pairs()
        )
        assert not rep.passed
        assert rep.checked == 9
        assert rep.violations == 9
        assert rep.worst_gap == pytest.approx(0.5, abs=1e-12)
        assert rep.first_violation is not None

    def test_infinite_mixture_skipped(self):
        # a measure finite only at the two ends tests no mixture
        ends = (werner(0.0), maximally_mixed())

        def measure(rho):
            return 0.0 if any(rho is e for e in ends) else math.inf

        rep = audit_convexity(measure, AuditConfig(samples=0), extra_pairs=[ends])
        assert (rep.checked, rep.violations, rep.passed) == (0, 0, False)
        assert rep.infinite_skipped == 3  # one per mixing weight

    @pytest.mark.parametrize("other", [(2, 3), (4,)])
    def test_pairs_need_equal_dims(self, other):
        # a (2, 3) partner cannot be mixed with a (2, 2) state, and a (4,)
        # one has another tensor structure; both are refused as the
        # Lipschitz audit refuses them
        pair = (maximally_mixed(), maximally_mixed(other))
        msg = re.escape(f"dims mismatch: (2, 2) vs {other}")
        with pytest.raises(ValidationError, match=f"^{msg}$"):
            audit_convexity(lambda r: 0.0, AuditConfig(samples=0), extra_pairs=[pair])

    def test_endpoint_pairs_are_free(self):
        for r1, r2 in discord_axis_endpoint_pairs():
            assert discord_filtered_measure(r1) <= 1e-12
            assert discord_filtered_measure(r2) <= 1e-12

