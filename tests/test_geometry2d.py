"""Planar robustness engine and the two reference discontinuity scenes."""

import math

import numpy as np
import pytest

from robustlab.errors import ConfigurationError, ValidationError
from robustlab.geometry2d import (
    MAX_RESOLUTION,
    PlanarFreeSet,
    PlanarScene,
    absolute_robustness_2d,
    counterexample1_exact,
    counterexample1_point,
    counterexample2_exact,
    counterexample2_point,
    global_robustness_2d,
    planar_star_probe,
    scene_counterexample1,
    scene_counterexample2,
)


def signed_area(poly):
    return 0.5 * sum(
        poly[i][0] * poly[(i + 1) % len(poly)][1]
        - poly[(i + 1) % len(poly)][0] * poly[i][1]
        for i in range(len(poly))
    )


def convex_overlap(poly1, poly2):
    """Separating-axis test for two convex polygons (closed sets)."""
    for poly in (poly1, poly2):
        n = len(poly)
        for i in range(n):
            e = poly[(i + 1) % n] - poly[i]
            axis = np.array([-e[1], e[0]])
            p1 = [float(axis @ v) for v in poly1]
            p2 = [float(axis @ v) for v in poly2]
            if max(p1) < min(p2) or max(p2) < min(p1):
                return False
    return True


def reference_robustness(p, target, noise_region, tol=1e-10):
    """Independent oracle: bisection on the feasibility of s.

    Mixing with weight s succeeds iff the rescaled target
    {((1+s) q - p)/s : q in target} meets the noise region; feasibility is
    monotone in s because surplus noise can be replaced by the target point
    itself.
    """
    p = np.asarray(p, dtype=float)

    def feasible(s):
        scaled = [((1.0 + s) * np.asarray(q) - p) / s for q in target]
        return convex_overlap(scaled, [np.asarray(v, float) for v in noise_region])

    lo, hi = 1e-9, 64.0
    if feasible(lo):
        return 0.0
    if not feasible(hi):
        return math.inf
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


BOX = [(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)]
TRI = [(-0.5, 0.0), (0.5, 0.0), (0.0, 0.5)]


def triangle_scene():
    free = PlanarFreeSet(polygons=[TRI], star_center=(0.0, 0.1))
    return PlanarScene(BOX, free)


class TestConstruction:
    def test_clockwise_polygon_normalized(self):
        free = PlanarFreeSet(polygons=[[(0, 0), (0, 1), (1, 1), (1, 0)]])
        assert signed_area(free.polygons[0]) > 0

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            PlanarFreeSet(polygons=[[(0, 0), (1, 1), (2, 2)]])

    def test_empty_free_set_rejected(self):
        with pytest.raises(ValidationError):
            PlanarFreeSet()

    def test_star_center_must_be_member(self):
        with pytest.raises(ConfigurationError):
            PlanarFreeSet(segments=[((0, 0), (1, 0))], star_center=(0.5, 1.0))

    def test_free_must_fit_in_state_space(self):
        free = PlanarFreeSet(segments=[((0.5, 0.5), (2.0, 0.5))])
        with pytest.raises(ValidationError, match="outside the state space"):
            PlanarScene([(0, 0), (1, 0), (1, 1), (0, 1)], free)

    def test_contains(self):
        free = PlanarFreeSet(
            segments=[((0, 0), (1, 0)), ((0.3, 0.3), (0.3, 0.3))],
            polygons=[[(2, 0), (3, 0), (3, 1), (2, 1)]],
        )
        assert free.contains((0.5, 0.0))
        assert free.contains((0.3, 0.3))       # degenerate segment = point
        assert free.contains((2.5, 0.5))
        assert not free.contains((0.5, 0.1))
        assert not free.contains((1.5, 0.5))

    @pytest.mark.parametrize("point", ["12", (1.0,), (0.0, 0.5, 1.0), [[0.0, 0.5]],
                                       (math.nan, 0.5), (0.0, math.inf)])
    def test_malformed_point_rejected(self, point):
        with pytest.raises(ValidationError, match="planar point"):
            absolute_robustness_2d(point, scene_counterexample1())

    def test_out_of_space_point_rejected(self):
        scene = scene_counterexample1()
        with pytest.raises(ValidationError, match="outside the state space"):
            absolute_robustness_2d((10.0, 0.0), scene)
        with pytest.raises(ValidationError, match="outside the state space"):
            global_robustness_2d((10.0, 0.0), scene)


class TestCounterexample1:
    def test_exact_values(self):
        assert counterexample1_exact(-0.5) == 4.0
        assert counterexample1_exact(-1e-9) == 4.0
        assert counterexample1_exact(0.5) == 0.5
        assert counterexample1_exact(0.0) == 0.0
        assert counterexample1_exact(-0.5, delta=0.5) == 1.0

    def test_numeric_matches_exact(self):
        scene = scene_counterexample1()
        for t in (-0.8, -0.5, -0.1, 0.0, 0.3, 0.5, 1.0):
            v = absolute_robustness_2d(counterexample1_point(t), scene)
            assert v == pytest.approx(counterexample1_exact(t), abs=1e-6)

    def test_jump_at_zero(self):
        scene = scene_counterexample1()
        eps = 1e-3
        left = absolute_robustness_2d(counterexample1_point(-eps), scene)
        right = absolute_robustness_2d(counterexample1_point(eps), scene)
        assert left - right > 3.9

    def test_free_point_is_zero(self):
        scene = scene_counterexample1()
        assert absolute_robustness_2d((0.0, 0.4), scene) == 0.0
        assert absolute_robustness_2d((-0.5, 0.1), scene) == 0.0

    def test_delta_variation(self):
        scene = scene_counterexample1(delta=0.5)
        v = absolute_robustness_2d(counterexample1_point(-0.5), scene)
        assert v == pytest.approx(1.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            scene_counterexample1(delta=0.0)
        with pytest.raises(ValidationError):
            scene_counterexample1(delta=1.0)
        with pytest.raises(ValidationError):
            counterexample1_point(1.5)
        with pytest.raises(ValidationError):
            counterexample1_exact(-2.0)


class TestCounterexample2:
    def test_families_meet_at_apex(self):
        pa = counterexample2_point("a", 0.5)
        pb = counterexample2_point("b", 2.0 / 3.0)
        assert pa == pb == (0.0, 0.0)

    def test_exact_values(self):
        assert counterexample2_exact("a", 0.2) == pytest.approx(0.4)
        assert counterexample2_exact("a", 0.5) == 1.0
        assert counterexample2_exact("b", 0.5) == pytest.approx(1.5)
        assert counterexample2_exact("b", 2.0 / 3.0) == 1.0  # the route switches
        assert counterexample2_exact("b", 2.0 / 3.0 - 1e-6) == pytest.approx(
            2.0, abs=1e-5
        )

    def test_numeric_on_both_families(self):
        scene = scene_counterexample2()
        for t in (0.1, 0.25, 0.4, 0.5):
            v = global_robustness_2d(counterexample2_point("a", t), scene)
            assert v == pytest.approx(counterexample2_exact("a", t), abs=1e-9)
        for t in (0.1, 0.3, 0.5, 0.6):
            v = global_robustness_2d(counterexample2_point("b", t), scene)
            assert v == pytest.approx(counterexample2_exact("b", t), abs=1e-9)

    def test_apex_value(self):
        scene = scene_counterexample2()
        assert global_robustness_2d((0.0, 0.0), scene) == pytest.approx(1.0, abs=1e-9)

    def test_interior_is_inf(self):
        scene = scene_counterexample2()
        for p in ((0.2, 0.2), (0.1, 0.5), (0.4, 0.1), (0.05, 0.05)):
            assert global_robustness_2d(p, scene) == math.inf

    def test_free_points_are_zero(self):
        scene = scene_counterexample2()
        assert global_robustness_2d((0.5, 0.0), scene) == 0.0
        assert global_robustness_2d((0.0, 2.0 / 3.0), scene) == 0.0

    def test_angle_independence(self):
        for angle in (math.pi / 3, math.pi / 2, 2.4):
            scene = scene_counterexample2(angle=angle)
            for t in (0.2, 0.45):
                v = global_robustness_2d(
                    counterexample2_point("b", t, angle=angle), scene
                )
                assert v == pytest.approx(counterexample2_exact("b", t), abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            scene_counterexample2(a=0.0)
        with pytest.raises(ValidationError):
            scene_counterexample2(angle=0.0)
        with pytest.raises(ValidationError):
            counterexample2_point("c", 0.1)
        with pytest.raises(ValidationError):
            counterexample2_point("a", 0.6)
        with pytest.raises(ValidationError):
            counterexample2_exact("b", 1.0)


class TestAgainstIndependentOracle:
    def test_global_robustness(self):
        scene = triangle_scene()
        for p in ((0.9, 1.1), (-1.2, 0.8), (0.0, -1.0), (1.5, 0.2)):
            truth = reference_robustness(p, TRI, BOX)
            v = global_robustness_2d(p, scene)
            assert v == pytest.approx(truth, abs=1e-6)

    def test_absolute_robustness(self):
        scene = triangle_scene()
        for p in ((0.9, 1.1), (-1.2, 0.8), (0.0, -1.0)):
            truth = reference_robustness(p, TRI, TRI)
            v = absolute_robustness_2d(p, scene)
            assert v == pytest.approx(truth, abs=1e-6)

    def test_resolution_refinement(self):
        scene = triangle_scene()
        p = (0.9, 1.1)
        truth = reference_robustness(p, TRI, BOX)
        values = [
            global_robustness_2d(p, scene, resolution=r) for r in (8, 16, 64)
        ]
        for v in values:
            assert v >= truth - 1e-9  # sampling gives upper envelopes
        assert values[0] >= values[-1] - 1e-9
        assert values[-1] == pytest.approx(truth, abs=1e-6)

    @pytest.mark.parametrize("solver", [absolute_robustness_2d, global_robustness_2d])
    @pytest.mark.parametrize("kwargs", [
        {"resolution": 0}, {"resolution": -2}, {"resolution": 2.5},
        {"resolution": math.inf}, {"resolution": -math.inf}, {"resolution": 0.5},
        {"resolution": math.nan}, {"resolution": MAX_RESOLUTION + 1},
    ])
    def test_bad_parameters(self, solver, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            solver((0.9, 1.1), triangle_scene(), **kwargs)

    def test_resolution_cap_accepted(self):
        assert MAX_RESOLUTION == 10_000
        p = (0.9, 1.1)
        v = global_robustness_2d(p, triangle_scene(), resolution=MAX_RESOLUTION)
        assert v == pytest.approx(reference_robustness(p, TRI, BOX), abs=1e-6)


def shear_scene(scene, m):
    a = np.asarray(m, dtype=float)

    def f(v):
        return tuple(a @ np.asarray(v, dtype=float))

    free = scene.free
    sheared_free = PlanarFreeSet(
        segments=[(f(s), f(e)) for s, e in free.segments],
        polygons=[[f(v) for v in poly] for poly in free.polygons],
        star_center=None if free.star_center is None else f(free.star_center),
    )
    return PlanarScene([f(v) for v in scene.state_space], sheared_free)


class TestAffineInvariance:
    def test_shear_preserves_values(self):
        m = [[1.0, 0.7], [0.0, 1.0]]
        scene = scene_counterexample1()
        sheared = shear_scene(scene, m)
        for t in (-0.5, 0.3, 0.8):
            p = np.array(counterexample1_point(t))
            v0 = absolute_robustness_2d(p, scene)
            v1 = absolute_robustness_2d(np.asarray(m) @ p, sheared)
            assert v1 == pytest.approx(v0, abs=1e-6)

    def test_shear_preserves_global_values(self):
        m = [[1.0, -0.4], [0.2, 1.0]]
        scene = triangle_scene()
        sheared = shear_scene(scene, m)
        p = np.array([0.9, 1.1])
        v0 = global_robustness_2d(p, scene)
        v1 = global_robustness_2d(np.asarray(m) @ p, sheared)
        assert v1 == pytest.approx(v0, abs=1e-6)


class TestPlanarStarProbe:
    def test_reference_scene_passes(self):
        scene = scene_counterexample1()
        assert planar_star_probe(scene.free, samples=32, mix_points=5) == []

    def test_disconnected_set_fails(self):
        free = PlanarFreeSet(
            segments=[((0.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (1.0, 1.0))],
            star_center=(0.5, 0.0),
        )
        bad = planar_star_probe(free, samples=16, mix_points=5)
        assert len(bad) > 0

    @pytest.mark.parametrize("kwargs", [{"samples": 0}, {"mix_points": 0}, {"mix_points": -1}])
    def test_bad_counts(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            planar_star_probe(scene_counterexample1().free, **kwargs)

    def test_requires_center(self):
        free = PlanarFreeSet(segments=[((0, 0), (1, 0))])
        with pytest.raises(ConfigurationError):
            planar_star_probe(free)
