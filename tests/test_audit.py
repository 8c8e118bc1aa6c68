"""Empirical audits: Lipschitz, faithfulness, monotonicity, convexity."""

import math

import numpy as np
import pytest

from robustlab.audit import (
    MAX_AUDIT_SAMPLES,
    AuditConfig,
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
from robustlab.engines import discord_robustness_bds
from robustlab.errors import ConfigurationError, ValidationError
from robustlab.free_sets import bds_params_of, oracle_by_name
from robustlab.qstates import (
    DensityMatrix,
    maximally_mixed,
    random_density,
    trace_distance,
    werner,
)


def bds_measure(rho):
    params = bds_params_of(rho, tol=1e-6)
    assert params is not None
    return discord_robustness_bds(params)


class TestAuditConfig:
    def test_accepts_boundary_values(self):
        cfg = AuditConfig(seed=0, tolerance=0.0)
        assert (cfg.seed, cfg.tolerance) == (0, 0.0)
        assert AuditConfig(seed=2.0).seed == 2  # an integral float is an integer
        assert AuditConfig().tolerance is None

    @pytest.mark.parametrize("seed", [-1, 1.5, math.nan, math.inf])
    def test_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            AuditConfig(seed=seed)

    @pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.nan, math.inf])
    def test_bad_tolerance(self, tolerance):
        with pytest.raises(ValidationError, match="tolerance"):
            AuditConfig(tolerance=tolerance)

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

    def test_custom_distance(self):
        pairs = [("custom", werner(0.2), werner(0.3))]
        rep = audit_lipschitz(
            bds_measure, 1.0, AuditConfig(), pairs=pairs,
            distance=lambda a, b: 2.0 * trace_distance(a, b),
        )
        assert rep.max_ratio == pytest.approx(1.0 / 3.0, abs=1e-9)


class TestRayMeasure:
    def test_ppt_ray_within_ball_constant(self):
        measure = ray_measure(maximally_mixed(), oracle_by_name("ppt"))
        rep = audit_lipschitz(measure, math.sqrt(27.0 / 4.0), AuditConfig(samples=15))
        assert rep.passed
        assert rep.max_ratio <= math.sqrt(27.0 / 4.0)


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

    def test_set_breaking_channel_rejected(self):
        with pytest.raises(ConfigurationError, match="maps a free state out"):
            audit_monotonicity(
                discord_filtered_measure,
                [("cnot", cnot_channel())],
                oracle_by_name("zero-discord"),
                AuditConfig(samples=8),
            )

    def test_channel_validation(self):
        with pytest.raises(ConfigurationError):
            channel_depolarizing(1.5)


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

    def test_endpoint_pairs_are_free(self):
        for r1, r2 in discord_axis_endpoint_pairs():
            assert discord_filtered_measure(r1) <= 1e-12
            assert discord_filtered_measure(r2) <= 1e-12

