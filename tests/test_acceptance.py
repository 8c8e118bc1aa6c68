"""End-to-end acceptance gate.

Twelve numbered criteria, each printing one PASS/FAIL line (run pytest with
-s to see them).  Tolerances and sample counts are part of the contract and
are not to be loosened.
"""

import math
import time

import numpy as np
import pytest

from robustlab.audit import (
    AuditConfig,
    audit_convexity,
    discord_axis_endpoint_pairs,
    ray_measure,
)
from robustlab.engines import (
    bound_from_kappa_ball,
    discord_robustness_axis_opt,
    discord_robustness_bds,
    discord_robustness_bounds,
    lipschitz_from_kappa_ball,
    lipschitz_teleport,
    min_scaling_robustness,
    robustness_along_ray,
)
from robustlab.free_sets import (
    bds_params_of,
    discord_defect,
    is_ppt,
    is_unfaithful,
    oracle_by_name,
    random_quantum_classical,
    sample_trace_ball,
    separable_ball_radius,
    singlet_fraction,
)
from robustlab.geometry2d import (
    absolute_robustness_2d,
    counterexample1_point,
    counterexample2_point,
    global_robustness_2d,
    scene_counterexample1,
    scene_counterexample2,
)
from robustlab.qstates import (
    DensityMatrix,
    bell_diagonal,
    bloch_decompose,
    maximally_mixed,
    random_bell_diagonal,
    random_density,
    state_inversion,
    trace_distance,
    werner,
)


def report(number, ok, detail=""):
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_closed_form_vs_axis_opt():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for _ in range(500):
        params = random_bell_diagonal(rng)
        closed = discord_robustness_bds(params)
        middle = sorted(abs(v) for v in params.as_tuple())[1]
        if closed != middle:
            ok = False
        # a coarse scan suffices: each per-axis objective is convex, so the
        # bracketed refinement still reaches the optimum
        numeric = discord_robustness_axis_opt(params, grid=16).value
        worst = max(worst, abs(numeric - closed))
    elapsed = time.perf_counter() - t0
    ok = ok and worst <= 1e-6 and elapsed < 10.0
    report(1, ok, f"500 states, worst |axis-opt - closed| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_werner_family():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 11):
        exact = 1.0 - p
        closed = discord_robustness_bds(bds_params_of(werner(p)))
        numeric = discord_robustness_axis_opt(bds_params_of(werner(p))).value
        worst = max(worst, abs(closed - exact), abs(numeric - exact))
    report(2, worst <= 1e-6, f"worst error over p grid = {worst:.2e}")


def test_criterion_3_jump_for_connected_free_set():
    scene = scene_counterexample1(0.2)
    v_left = absolute_robustness_2d(counterexample1_point(-0.5), scene)
    v_right = absolute_robustness_2d(counterexample1_point(0.5), scene)
    eps = 1e-3
    jump = absolute_robustness_2d(
        counterexample1_point(-eps), scene
    ) - absolute_robustness_2d(counterexample1_point(eps), scene)
    ok = abs(v_left - 4.0) <= 1e-3 and abs(v_right - 0.5) <= 1e-3 and jump > 3.9
    report(3, ok, f"values {v_left:.6f}, {v_right:.6f}, jump {jump:.4f}")


def test_criterion_4_jump_with_attained_infimum():
    scene = scene_counterexample2()
    apex_a = counterexample2_point("a", 0.5)
    apex_b = counterexample2_point("b", 2.0 / 3.0)
    same_point = apex_a == apex_b
    at_apex = global_robustness_2d(apex_a, scene)
    # the second family's one-sided limit at the shared point is 2, twice
    # the value actually attained there
    near = global_robustness_2d(counterexample2_point("b", 2.0 / 3.0 - 1e-4), scene)
    rng = np.random.default_rng(4)
    interior_ok = True
    count = 0
    while count < 10:
        x, y = rng.uniform(0.05, 0.6, size=2)
        if x + y >= 0.9:  # keep clearly inside the triangle
            continue
        count += 1
        if math.isfinite(global_robustness_2d((x, y), scene)):
            interior_ok = False
    ok = (
        same_point
        and abs(at_apex - 1.0) <= 1e-3
        and abs(near - 2.0) <= 1e-3
        and interior_ok
    )
    report(4, ok, f"attained {at_apex:.6f}, one-sided limit {near:.6f}, 10 interior inf")


def test_criterion_5_closed_form_lipschitz_audit():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    L = 4.0
    violations = 0
    max_ratio = 0.0
    for _ in range(10_000):
        p1 = random_bell_diagonal(rng)
        p2 = random_bell_diagonal(rng)
        dist = trace_distance(bell_diagonal(p1), bell_diagonal(p2))
        if dist <= 1e-12:
            continue
        ratio = abs(discord_robustness_bds(p1) - discord_robustness_bds(p2)) / dist
        max_ratio = max(max_ratio, ratio)
        if ratio > L * (1.0 + 1e-6):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    report(5, ok, f"10^4 pairs, max_ratio = {max_ratio:.4f}, L = 4, {elapsed:.1f}s")


def test_criterion_6_separable_ball_inside_ppt():
    rng = np.random.default_rng(6)
    center = maximally_mixed()
    kappa = separable_ball_radius(2, 2)
    failures = sum(
        0 if is_ppt(sample_trace_ball(center, kappa, rng)) else 1 for _ in range(1000)
    )
    report(6, failures == 0, f"1000 ball samples, {failures} non-PPT")


def test_criterion_7_ray_bound_and_ball_constant():
    rng = np.random.default_rng(7)
    mm = maximally_mixed()
    ppt = oracle_by_name("ppt")
    kappa = separable_ball_radius(2, 2)
    bound = bound_from_kappa_ball(mm, kappa)
    worst = 0.0
    for _ in range(200):
        rho = random_density(4, seed=rng)
        worst = max(worst, robustness_along_ray(rho, mm, ppt).value)
    L = lipschitz_from_kappa_ball(mm, kappa).L
    ok = worst <= bound + 1e-6 and abs(L - math.sqrt(27.0 / 4.0)) <= 1e-12
    report(7, ok, f"max ray value {worst:.4f} <= {bound:.6f}, L = {L:.12f}")


def test_criterion_8_min_scaling_vs_bisection():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        rho = random_density(4, seed=rng)
        sigma = random_density(4, seed=rng)  # full rank almost surely
        fast = min_scaling_robustness(rho, sigma)

        def feasible(s):
            return np.linalg.eigvalsh((1.0 + s) * sigma.mat - rho.mat)[0] >= 0.0

        lo, hi = 0.0, 1.0
        if feasible(0.0):
            slow = 0.0
        else:
            while not feasible(hi):
                hi *= 2.0
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                if feasible(mid):
                    hi = mid
                else:
                    lo = mid
            slow = hi
        worst = max(worst, abs(fast - slow))
    report(8, worst <= 1e-8, f"100 pairs, worst disagreement = {worst:.2e}")


def test_criterion_9_teleportability():
    const_ok = lipschitz_teleport(2).L == 3.0
    rng = np.random.default_rng(9)
    worst = 0.0
    equiv_ok = True
    for _ in range(100):
        params = random_bell_diagonal(rng)
        rho = bell_diagonal(params)
        p_max = float(np.max(params.weights()))
        if is_unfaithful(rho) != (p_max <= 0.5 + 1e-8):
            equiv_ok = False
        worst = max(worst, abs(singlet_fraction(rho) - p_max))
    ok = const_ok and equiv_ok and worst <= 1e-3
    report(9, ok, f"L = 3 exact, worst |numeric - p_max| = {worst:.2e}")


def test_criterion_10_zero_discord_star_convexity():
    rng = np.random.default_rng(10)
    mm = maximally_mixed()
    worst = 0.0
    for _ in range(1000):
        rho = random_quantum_classical(rng)
        for w in np.linspace(0.1, 1.0, 10):
            mix = DensityMatrix(
                (1.0 - w) * rho.mat + w * mm.mat, (2, 2), validate=False
            )
            worst = max(worst, discord_defect(mix))
    report(10, worst <= 1e-9, f"10^4 mixtures, worst defect = {worst:.2e}")


def test_criterion_11_bounds_and_filtering_identity():
    rng = np.random.default_rng(11)
    order_ok = True
    identity_worst = 0.0
    for _ in range(200):
        rho = random_density(4, seed=rng)
        lo, hi = discord_robustness_bounds(rho)
        if not 0.0 <= lo <= hi:
            order_ok = False
        # removing the local vectors moves the state by exactly max(|x|, |y|)
        filtered = DensityMatrix(
            0.5 * (rho.mat + state_inversion(rho).mat), (2, 2), validate=False
        )
        b = bloch_decompose(rho)
        expected = max(float(np.linalg.norm(b.x)), float(np.linalg.norm(b.y)))
        identity_worst = max(
            identity_worst, abs(trace_distance(rho, filtered) - expected)
        )
    bds_ok = True
    for _ in range(50):
        params = random_bell_diagonal(rng)
        lo, hi = discord_robustness_bounds(bell_diagonal(params))
        exact = discord_robustness_bds(params)
        if abs(lo - exact) > 1e-9 or abs(hi - exact) > 1e-9:
            bds_ok = False
    ok = order_ok and bds_ok and identity_worst <= 1e-9
    report(11, ok, f"identity worst = {identity_worst:.2e}")


def test_criterion_12_convexity_depends_on_free_set():
    measure = ray_measure(maximally_mixed(), oracle_by_name("ppt"))
    convex = audit_convexity(measure, AuditConfig(samples=50, seed=12))

    def bds_measure(rho):
        return discord_robustness_bds(bds_params_of(rho, tol=1e-6))

    broken = audit_convexity(
        bds_measure, AuditConfig(samples=0), extra_pairs=discord_axis_endpoint_pairs()
    )
    ok = convex.violations == 0 and convex.checked > 0 and broken.violations >= 1
    report(
        12,
        ok,
        f"ppt-ray violations {convex.violations}/{convex.checked}, "
        f"axis-endpoint violations {broken.violations}/{broken.checked}",
    )
