"""Planar robustness engine and the two reference discontinuity scenes."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from robustlab.config import TOLS
from robustlab.errors import ConfigurationError, ValidationError
from robustlab.geometry2d import (
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
from robustlab.geometry2d import _edges, _point_segment_dist


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


NOTCHED = [(0, 0), (2, 0), (1, 0.2), (2, 2), (0, 2)]  # reflex vertex at (1, 0.2)


class TestConstruction:
    def test_clockwise_polygon_normalized(self):
        free = PlanarFreeSet(polygons=[[(0, 0), (0, 1), (1, 1), (1, 0)]])
        assert signed_area(free.polygons[0]) > 0

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            PlanarFreeSet(polygons=[[(0, 0), (1, 1), (2, 2)]])

    @pytest.mark.parametrize("poly", [
        NOTCHED,
        NOTCHED[::-1],
        # a pentagram: every turn has the same sign, but the outline crosses itself
        [(math.cos(a), math.sin(a)) for a in (2 * math.pi * k * 2 / 5 for k in range(5))],
    ], ids=["notched", "notched-clockwise", "pentagram"])
    def test_non_convex_polygon_rejected(self, poly):
        # (0.5, 1) lies inside the notched pentagon, outside the face through the notch
        with pytest.raises(ValidationError, match="not convex"):
            PlanarFreeSet(polygons=[poly])

    def test_non_convex_state_space_rejected(self):
        free = PlanarFreeSet(segments=[((0.5, 1.0), (0.5, 1.0))])
        with pytest.raises(ValidationError, match="not convex"):
            PlanarScene(NOTCHED, free)

    def test_two_vertices_rejected(self):
        with pytest.raises(ValidationError, match="three vertices"):
            PlanarFreeSet(polygons=[[(0, 0), (1, 0)]])

    def test_repeated_vertex_rejected(self):
        # the edge from a vertex to its repeat has no normal
        with pytest.raises(ValidationError, match="repeat"):
            PlanarFreeSet(polygons=[[(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)]])

    def test_collinear_vertices_accepted(self):
        free = PlanarFreeSet(polygons=[[(0, 0), (1, 0), (2, 0), (2, 2), (1, 2), (0, 2)]])
        assert free.contains((1.0, 1.0))
        assert free.contains((1.0, 0.0))
        assert not free.contains((1.0, -0.1))
        scene = PlanarScene(BOX, free)
        assert global_robustness_2d((1.0, -1.0), scene) == pytest.approx(0.5, abs=1e-6)

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

    def test_coordinates_up_to_the_bound_solve_without_overflow(self):
        # in a box of half-width 1e308, edges of length 2e308 overflowed to inf
        # and the solve read 0.0 where the value is 0.1; coordinates up to 1e150
        # keep every difference and cross product finite
        def box(b):
            return [(-b, -b), (b, -b), (b, b), (-b, b)]

        free = scene_counterexample1().free
        scene = PlanarScene(box(1e150), free)
        # the chord toward the opposite corner crosses the free point (0, 0)
        assert global_robustness_2d((1e149, 1e149), scene) == pytest.approx(0.1, rel=1e-12)
        assert global_robustness_2d((1e150, 1e150), scene) == pytest.approx(1.0, rel=1e-12)
        # a free square of half-width 1e149 in the box: the values are those of
        # the scene scaled to half-widths 1 and 10, 4/11 and 2 at (5, 2); the
        # golden-section pass around the best sample, an inner point of an
        # edge 2e150 long, ends once its bracket reaches the float spacing
        wide = PlanarScene(box(1e150), PlanarFreeSet(polygons=[box(1e149)]))
        assert global_robustness_2d((5e149, 2e149), wide) == pytest.approx(4.0 / 11.0, rel=1e-12)
        assert absolute_robustness_2d((5e149, 2e149), wide) == pytest.approx(2.0, rel=1e-12)
        past = math.nextafter(1e150, math.inf)
        for p in ((past, 0.0), (0.0, -past)):
            with pytest.raises(ValidationError, match="planar point"):
                global_robustness_2d(p, scene)
        for b in (past, 1e308):
            with pytest.raises(ValidationError, match="planar point"):
                PlanarScene(box(b), free)

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

    def test_validation(self):
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
        # 65 samples per edge and the golden-section pass reach the truth
        # from above (sampling gives upper envelopes)
        p = (0.9, 1.1)
        truth = reference_robustness(p, TRI, BOX)
        v = global_robustness_2d(p, triangle_scene())
        assert v >= truth - 1e-9
        assert v == pytest.approx(truth, abs=1e-6)

    @pytest.mark.parametrize("solver", [absolute_robustness_2d, global_robustness_2d])
    @pytest.mark.parametrize("kwargs", [
        {"p": b"12"}, {"p": None}, {"p": (0.9,)}, {"p": (0.9, 1.1, 0.0)},
        {"p": (0.9, -math.inf)}, {"p": (math.nan, 1.1)},
        {"p": (2.5, 1.1)}, {"p": (0.9, -2.0 - 1e-6)},
    ])
    def test_bad_parameters(self, solver, kwargs):
        # malformed, non-finite and out-of-space points
        with pytest.raises(ValidationError, match="point"):
            solver(**{"p": (0.9, 1.1), "scene": triangle_scene(), **kwargs})


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


# --- reference solver: every chord test from the raw scene -------------------
# The library prepares the face normals and segment directions once per
# scene and the offsets from p once per point; this copy recomputes them on
# every chord with the same float operations, so the two must agree bit for bit.


def _ref_hit_polygon(px, py, dx, dy, poly, tol):
    t0, t1 = 0.0, 1.0
    for (vx, vy), (wx, wy) in _edges(poly):
        ex, ey = wx - vx, wy - vy
        norm = math.hypot(ex, ey)
        nx, ny = -ey / norm, ex / norm
        f = nx * dx + ny * dy
        g = (nx * (px - vx) + ny * (py - vy)) + tol
        if abs(f) < 1e-15:
            if g < 0.0:
                return None
            continue
        u = -g / f
        if f > 0.0:
            t0 = max(t0, u)
        else:
            t1 = min(t1, u)
    if t0 > t1 + 1e-12:
        return None
    return max(t0, 0.0)


def _ref_hit_segment(px, py, dx, dy, a, b, tol):
    dlen = math.hypot(dx, dy)
    if dlen < 1e-15:
        return 0.0 if _point_segment_dist(px, py, a, b) <= tol else None
    (ax, ay), (bx, by) = a, b
    ex, ey = bx - ax, by - ay
    elen = math.hypot(ex, ey)
    if elen < 1e-15:
        u = min(1.0, max(0.0, ((ax - px) * dx + (ay - py) * dy) / (dlen * dlen)))
        return u if math.hypot(px + u * dx - ax, py + u * dy - ay) <= tol else None
    denom = dx * ey - dy * ex
    rx, ry = ax - px, ay - py
    if abs(denom) < 1e-12 * dlen * elen:
        if abs(dx * ry - dy * rx) > tol * dlen:
            return None
        u1 = (rx * dx + ry * dy) / (dlen * dlen)
        u2 = ((bx - px) * dx + (by - py) * dy) / (dlen * dlen)
        lo, hi = min(u1, u2), max(u1, u2)
        if hi < 0.0 or lo > 1.0:
            return None
        return max(lo, 0.0)
    u = (rx * ey - ry * ex) / denom
    v = (rx * dy - ry * dx) / denom
    if -tol / elen <= v <= 1.0 + tol / elen and -tol / dlen <= u <= 1.0 + tol / dlen:
        return min(1.0, max(0.0, u))
    return None


def _ref_value_for_tau(px, py, tx, ty, free, tol):
    dx, dy = tx - px, ty - py
    guard = TOLS.geometry_guard_factor * tol
    hits = [_ref_hit_segment(px, py, dx, dy, a, b, tol) for a, b in free.segments]
    hits += [_ref_hit_polygon(px, py, dx, dy, poly, tol) for poly in free.polygons]
    best = None
    for u in hits:
        if u is None or math.hypot(px + u * dx - tx, py + u * dy - ty) <= guard:
            continue
        if best is None or u < best:
            best = u
    if best is None or best >= 1.0 - 1e-12:
        return math.inf
    return best / (1.0 - best)


def _ref_golden_refine(px, py, a, b, f_lo, f_hi, free, tol):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    (ax, ay), (bx, by) = a, b
    ex, ey = bx - ax, by - ay
    span = math.hypot(ex, ey)
    lo, hi = f_lo, f_hi
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    v1 = _ref_value_for_tau(px, py, ax + x1 * ex, ay + x1 * ey, free, tol)
    v2 = _ref_value_for_tau(px, py, ax + x2 * ex, ay + x2 * ey, free, tol)
    best = min(v1, v2)
    while (hi - lo) * span > 1e-9:
        if v1 <= v2:
            hi, x2, v2 = x2, x1, v1
            x1 = hi - inv_phi * (hi - lo)
            v1 = _ref_value_for_tau(px, py, ax + x1 * ex, ay + x1 * ey, free, tol)
        else:
            lo, x1, v1 = x1, x2, v2
            x2 = lo + inv_phi * (hi - lo)
            v2 = _ref_value_for_tau(px, py, ax + x2 * ex, ay + x2 * ey, free, tol)
        best = min(best, v1, v2)
    return best


def reference_solve(p, scene, absolute):
    """The planar solve with every chord test computed from the raw scene,
    sampling 65 points per locus."""
    resolution = 64
    px, py = float(p[0]), float(p[1])
    free = scene.free
    if free.contains((px, py)):
        return 0.0
    if absolute:
        loci = [*free.segments, *(e for poly in free.polygons for e in _edges(poly))]
    else:
        loci = list(_edges(scene.state_space))
    tol = TOLS.geometry_membership
    best, best_locus, best_idx = math.inf, None, 0
    for a, b in loci:
        (ax, ay), (bx, by) = a, b
        ex, ey = bx - ax, by - ay
        for j in range(resolution + 1):
            f = j / resolution
            v = _ref_value_for_tau(px, py, ax + f * ex, ay + f * ey, free, tol)
            if v < best:
                best, best_locus, best_idx = v, (a, b), j
    if best_locus is not None and math.isfinite(best):
        f_lo = max(0.0, (best_idx - 1) / resolution)
        f_hi = min(1.0, (best_idx + 1) / resolution)
        if f_hi > f_lo:
            best = min(best, _ref_golden_refine(px, py, *best_locus, f_lo, f_hi, free, tol))
    return best


def _convex(cx, cy, radius, angles):
    """A convex polygon: points of a circle in angular order."""
    return [(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in sorted(angles)]


_SCENE1 = scene_counterexample1()
_SCENE2 = scene_counterexample2()
_unit = st.floats(0.0, 1.0)
_coord = st.floats(-1.0, 1.0)


@st.composite
def _random_scene(draw):
    """A convex state space around the disk of radius 1.5 (vertices on the
    circle of radius 4, at most 3*pi/n apart) and a free set inside the
    square [-1, 1]^2 within that disk: up to two convex polygons, segments
    and isolated points."""
    n = draw(st.integers(4, 7))
    jitter = draw(st.lists(st.floats(0.0, math.pi / n), min_size=n, max_size=n))
    space = _convex(0.0, 0.0, 4.0, [2 * math.pi * k / n + j for k, j in enumerate(jitter)])
    polygons = []
    for _ in range(draw(st.integers(0, 2))):
        center = 0.75 * draw(_coord), 0.75 * draw(_coord)
        degrees = draw(st.lists(st.integers(0, 359), min_size=3, max_size=6, unique=True))
        poly = _convex(*center, draw(st.floats(0.05, 0.25)), [math.radians(d) for d in degrees])
        assume(abs(signed_area(poly)) > 1e-6)
        polygons.append(poly)
    segments = []
    for _ in range(draw(st.integers(0 if polygons else 1, 3))):
        a = (draw(_coord), draw(_coord))
        segments.append((a, a if draw(st.booleans()) else (draw(_coord), draw(_coord))))
    return PlanarScene(space, PlanarFreeSet(segments=segments, polygons=polygons))


def _in_triangle(u, v):
    """A point of counterexample 2's triangle from two uniform numbers."""
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    return (u, v)


class TestPreparedGeometryParity:
    """Both solvers equal the reference solve bit for bit: preparing the
    geometry per scene and per point reorders no float operation."""

    @staticmethod
    def assert_parity(p, scene):
        for absolute, solver in ((True, absolute_robustness_2d), (False, global_robustness_2d)):
            got = solver(p, scene)
            want = reference_solve(p, scene, absolute)
            assert got.hex() == want.hex(), (p, absolute, got, want)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(-1.0, 2.0))
    def test_counterexample1_scene(self, x, y):
        self.assert_parity((x, y), _SCENE1)

    @settings(max_examples=40, deadline=None)
    @given(_unit, _unit)
    def test_counterexample2_scene(self, u, v):
        self.assert_parity(_in_triangle(u, v), _SCENE2)

    @pytest.mark.parametrize("scene, p", [
        *((_SCENE1, counterexample1_point(t)) for t in (-1.0, -0.5, -1e-9, 0.3, 1.0)),
        *((_SCENE2, counterexample2_point("a", t)) for t in (0.1, 0.3, 0.5)),
        *((_SCENE2, counterexample2_point("b", t)) for t in (0.2, 0.5, 2.0 / 3.0)),
        (_SCENE1, (0.0, 1.5)), (_SCENE1, (0.0, -0.5)),  # chords along the segment
        (_SCENE1, (0.0, -1.0)), (_SCENE2, (0.25, 0.0)),  # a noise sample at p itself
    ])
    def test_special_points(self, scene, p):
        self.assert_parity(p, scene)

    @settings(max_examples=60, deadline=None)
    @given(_random_scene(), st.floats(-2.5, 2.5), st.floats(-2.5, 2.5))
    def test_random_convex_scenes(self, scene, x, y):
        assume(scene.contains((x, y)))
        self.assert_parity((x, y), scene)


def test_scene_records_are_frozen_and_equal_only_to_themselves():
    scene = scene_counterexample2()
    with pytest.raises(AttributeError, match="cannot assign to field 'free'"):
        scene.free = None
    with pytest.raises(AttributeError, match="cannot assign to field 'star_center'"):
        scene.free.star_center = (0.0, 0.0)
    assert scene == scene and scene != scene_counterexample2()
    assert len({scene, scene_counterexample2()}) == 2
    free = PlanarFreeSet(segments=[((0, 0), (1, 0))], star_center=(0.5, 0))
    assert repr(free) == (
        "PlanarFreeSet(segments=(((0.0, 0.0), (1.0, 0.0)),), polygons=(), star_center=(0.5, 0.0))"
    )
    assert repr(scene).startswith("PlanarScene(state_space=((0.0, 0.0), (1.0, 0.0), ")
    assert "_loci" not in repr(scene)
