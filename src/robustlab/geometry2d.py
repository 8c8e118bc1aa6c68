"""Planar robustness engine and the two discontinuity constructions.

States are points of a convex polygonal "state space"; the free set is a
union of segments (possibly degenerate, i.e. single points) and convex
polygons.  Mixing p with noise tau at weight s traverses the chord from p
toward tau, so the least feasible s comes from the earliest point where
the chord [p, tau] meets the free set: a hit at chord parameter u < 1
gives s = u/(1-u).

For absolute robustness the noise ranges over the free set; for global
robustness it ranges over the whole state space.  Along any fixed ray the
best noise point is the farthest admissible one, so candidates are
sampled on component boundaries (absolute) or the state-space boundary
(global); a golden-section pass then refines around the best sample.
Vertices are always included, which makes the two reference
constructions below exact at any resolution.

Hits indistinguishable from the noise endpoint itself (chord parameter
u = 1 within tolerance) are discarded: they correspond to s = infinity
and would otherwise masquerade as enormous finite values.

Points are (x, y) tuples and all arithmetic is on plain Python floats:
a solve makes hundreds of chord tests on 2-vectors, where array calls
would cost more than the arithmetic, and the module needs no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .config import TOLS, check_count
from .errors import ConfigurationError, ValidationError

__all__ = [
    "PlanarFreeSet",
    "PlanarScene",
    "absolute_robustness_2d",
    "global_robustness_2d",
    "planar_star_probe",
    "counterexample1_exact",
    "counterexample1_point",
    "scene_counterexample1",
    "counterexample2_exact",
    "counterexample2_point",
    "scene_counterexample2",
]

_Point = Sequence[float]
_Pt = tuple[float, float]

# a solve samples resolution + 1 points per locus, so its cost is linear in it
MAX_RESOLUTION = 10_000
# golden-section refinement stops once its bracket of noise points is this short
_REFINE_TOL = 1e-9


def _pt(p: _Point) -> _Pt:
    if isinstance(p, (str, bytes)):
        raise ValidationError(f"planar point must be two numbers, got {p!r}")
    try:
        x, y = p
        x, y = float(x), float(y)
    except (TypeError, ValueError):
        raise ValidationError(f"planar point must be two numbers, got {p!r}") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError(f"non-finite planar point {p!r}")
    return (x, y)


def _edges(poly: Sequence[_Pt]):
    """Consecutive vertex pairs of a closed polygon, last edge back to the first."""
    return zip(poly, (*poly[1:], poly[0]))


def _ccw(vertices: Sequence[_Point]) -> tuple[_Pt, ...]:
    pts = tuple(_pt(v) for v in vertices)
    if len(pts) < 3:
        raise ValidationError("a polygon needs at least three vertices")
    area2 = sum(ax * by - ay * bx for (ax, ay), (bx, by) in _edges(pts))
    if abs(area2) < 1e-15:
        raise ValidationError("degenerate polygon (zero area)")
    return pts if area2 > 0 else pts[::-1]


@dataclass(frozen=True, eq=False)
class PlanarFreeSet:
    """Union of segments and convex polygons, with an optional star center.

    Segments may be degenerate (both endpoints equal), representing
    isolated points.  Polygons are stored counterclockwise regardless of
    input orientation.  Points are stored as (x, y) tuples of floats.
    """

    segments: tuple[tuple[_Pt, _Pt], ...]
    polygons: tuple[tuple[_Pt, ...], ...]
    star_center: Optional[_Pt]

    def __init__(
        self,
        segments: Sequence[tuple[_Point, _Point]] = (),
        polygons: Sequence[Sequence[_Point]] = (),
        star_center: Optional[_Point] = None,
    ):
        object.__setattr__(
            self, "segments", tuple((_pt(a), _pt(b)) for a, b in segments)
        )
        object.__setattr__(self, "polygons", tuple(_ccw(p) for p in polygons))
        object.__setattr__(
            self, "star_center", None if star_center is None else _pt(star_center)
        )
        if not self.segments and not self.polygons:
            raise ValidationError("free set needs at least one component")
        if self.star_center is not None and not self.contains(self.star_center):
            raise ConfigurationError("declared star center is not in the free set")

    def contains(self, p: _Point) -> bool:
        tol = TOLS.geometry_membership
        qx, qy = _pt(p)
        for a, b in self.segments:
            if _point_segment_dist(qx, qy, a, b) <= tol:
                return True
        for poly in self.polygons:
            if _in_convex_polygon(qx, qy, poly, tol):
                return True
        return False


@dataclass(frozen=True, eq=False)
class PlanarScene:
    """A convex polygonal state space together with a free subset."""

    state_space: tuple[_Pt, ...]
    free: PlanarFreeSet

    def __init__(self, state_space: Sequence[_Point], free: PlanarFreeSet):
        object.__setattr__(self, "state_space", _ccw(state_space))
        object.__setattr__(self, "free", free)
        tol = TOLS.geometry_membership
        for edge in _edge_loci_of_free(free):
            for v in edge:
                if not _in_convex_polygon(*v, self.state_space, tol):
                    raise ValidationError(
                        f"free-set vertex {list(v)} lies outside the state space"
                    )

    def contains(self, p: _Point) -> bool:
        return _in_convex_polygon(*_pt(p), self.state_space, TOLS.geometry_membership)


def _edge_loci_of_free(free: PlanarFreeSet):
    """The free set's segments, then the edges of its polygons."""
    for a, b in free.segments:
        yield a, b
    for poly in free.polygons:
        yield from _edges(poly)


def _point_segment_dist(qx: float, qy: float, a: _Pt, b: _Pt) -> float:
    (ax, ay), (bx, by) = a, b
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    if dd < 1e-30:
        return math.hypot(qx - ax, qy - ay)
    t = min(1.0, max(0.0, ((qx - ax) * dx + (qy - ay) * dy) / dd))
    return math.hypot(qx - (ax + t * dx), qy - (ay + t * dy))


def _in_convex_polygon(qx: float, qy: float, poly: tuple[_Pt, ...], tol: float) -> bool:
    for (vx, vy), (wx, wy) in _edges(poly):
        ex, ey = wx - vx, wy - vy
        if ex * (qy - vy) - ey * (qx - vx) < -tol * math.hypot(ex, ey):
            return False
    return True


def _hit_polygon(px: float, py: float, dx: float, dy: float,
                 poly: tuple[_Pt, ...], tol: float) -> Optional[float]:
    """Entry parameter of the ray p + u*d, u in [0, 1], into a convex
    polygon whose faces are relaxed outward by tol (a distance)."""
    t0, t1 = 0.0, 1.0
    for (vx, vy), (wx, wy) in _edges(poly):
        ex, ey = wx - vx, wy - vy
        norm = math.hypot(ex, ey)
        # inward unit normal of a CCW edge
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


def _hit_segment(px: float, py: float, dx: float, dy: float, a: _Pt, b: _Pt,
                 tol: float) -> Optional[float]:
    """Earliest parameter u in [0, 1] where p + u*d meets segment [a, b]
    (both endpoints inclusive), to within distance tol."""
    dlen = math.hypot(dx, dy)
    if dlen < 1e-15:
        return 0.0 if _point_segment_dist(px, py, a, b) <= tol else None
    (ax, ay), (bx, by) = a, b
    ex, ey = bx - ax, by - ay
    elen = math.hypot(ex, ey)
    if elen < 1e-15:  # degenerate component: a single point
        u = min(1.0, max(0.0, ((ax - px) * dx + (ay - py) * dy) / (dlen * dlen)))
        return u if math.hypot(px + u * dx - ax, py + u * dy - ay) <= tol else None
    denom = dx * ey - dy * ex
    rx, ry = ax - px, ay - py
    if abs(denom) < 1e-12 * dlen * elen:
        # parallel; a hit needs collinearity within tol
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


def _first_hit(px: float, py: float, tx: float, ty: float, free: PlanarFreeSet,
               tol: float) -> Optional[float]:
    """Earliest valid chord parameter where [p, tau] meets the free set.

    Hits within the guard distance of tau itself are discarded (they
    encode u -> 1, i.e. unbounded s).
    """
    dx, dy = tx - px, ty - py
    guard = TOLS.geometry_guard_factor * tol
    best = None
    hits = []
    for a, b in free.segments:
        hits.append(_hit_segment(px, py, dx, dy, a, b, tol))
    for poly in free.polygons:
        hits.append(_hit_polygon(px, py, dx, dy, poly, tol))
    for u in hits:
        if u is None:
            continue
        if math.hypot(px + u * dx - tx, py + u * dy - ty) <= guard:
            continue
        if best is None or u < best:
            best = u
    return best


def _s_of_hit(u: Optional[float]) -> float:
    if u is None or u >= 1.0 - 1e-12:
        return math.inf
    return u / (1.0 - u)


def _value_for_tau(px, py, tx, ty, free, tol):
    return _s_of_hit(_first_hit(px, py, tx, ty, free, tol))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_refine(px, py, a, b, f_lo, f_hi, free, tol):
    """Golden-section scan of tau = a + f*(b - a) for f in [f_lo, f_hi],
    returning the best value seen (the objective may be piecewise flat or
    infinite; we only need an upper envelope, never a certified minimum)."""
    (ax, ay), (bx, by) = a, b
    ex, ey = bx - ax, by - ay
    span = math.hypot(ex, ey)
    lo, hi = f_lo, f_hi
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    v1 = _value_for_tau(px, py, ax + x1 * ex, ay + x1 * ey, free, tol)
    v2 = _value_for_tau(px, py, ax + x2 * ex, ay + x2 * ey, free, tol)
    best = min(v1, v2)
    while (hi - lo) * span > _REFINE_TOL:
        if v1 <= v2:
            hi, x2, v2 = x2, x1, v1
            x1 = hi - _INV_PHI * (hi - lo)
            v1 = _value_for_tau(px, py, ax + x1 * ex, ay + x1 * ey, free, tol)
        else:
            lo, x1, v1 = x1, x2, v2
            x2 = lo + _INV_PHI * (hi - lo)
            v2 = _value_for_tau(px, py, ax + x2 * ex, ay + x2 * ey, free, tol)
        best = min(best, v1, v2)
    return best


def _solve(p: _Point, scene: PlanarScene, loci, resolution: int) -> float:
    """Least mixing weight from p over noise points on the given (a, b)
    loci: 0 if p is free, else the best of ``resolution + 1`` samples per
    locus, refined by a golden-section pass around the best sample."""
    resolution = check_count("resolution", resolution, most=MAX_RESOLUTION)
    px, py = q = _pt(p)
    if not scene.contains(q):
        raise ValidationError(f"point {list(q)} lies outside the state space")
    free = scene.free
    if free.contains(q):
        return 0.0
    tol = TOLS.geometry_membership
    best = math.inf
    best_locus = None
    best_idx = 0
    for a, b in loci:
        (ax, ay), (bx, by) = a, b
        ex, ey = bx - ax, by - ay
        for j in range(resolution + 1):
            f = j / resolution
            v = _value_for_tau(px, py, ax + f * ex, ay + f * ey, free, tol)
            if v < best:
                best, best_locus, best_idx = v, (a, b), j
    if best_locus is not None and math.isfinite(best):
        a, b = best_locus
        f_lo = max(0.0, (best_idx - 1) / resolution)
        f_hi = min(1.0, (best_idx + 1) / resolution)
        if f_hi > f_lo:
            best = min(best, _golden_refine(px, py, a, b, f_lo, f_hi, free, tol))
    return best


def absolute_robustness_2d(
    p: _Point,
    scene: PlanarScene,
    resolution: int = 64,
) -> float:
    """Least s with (p + s*tau)/(1+s) free for some noise tau in the free
    set; math.inf when no finite mixture works.  ``resolution`` must be an
    integer in [1, MAX_RESOLUTION] (ValidationError otherwise)."""
    return _solve(p, scene, _edge_loci_of_free(scene.free), resolution)


def global_robustness_2d(
    p: _Point,
    scene: PlanarScene,
    resolution: int = 64,
) -> float:
    """Least s with (p + s*tau)/(1+s) free for some noise tau anywhere in
    the state space; math.inf when no finite mixture works.

    Along each ray from p the farthest admissible noise point is optimal,
    so candidates sweep the state-space boundary only.  ``resolution`` is
    validated as in :func:`absolute_robustness_2d`.
    """
    return _solve(p, scene, _edges(scene.state_space), resolution)


def planar_star_probe(
    free: PlanarFreeSet,
    samples: int = 64,
    mix_points: int = 7,
) -> list[tuple[tuple[float, float], float]]:
    """Probe star-convexity of the free set about its declared center.

    Mixes points sampled along every component toward the center and
    membership-tests each mixture; returns the list of violating
    (sample point, mixing fraction) pairs, empty when the probe passes.
    ``samples`` and ``mix_points`` must be integers >= 1 (ValidationError
    otherwise); with no mixtures the probe would pass without testing.
    """
    samples = check_count("samples", samples)
    mix_points = check_count("mix_points", mix_points)
    if free.star_center is None:
        raise ConfigurationError("free set declares no star center to probe")
    cx, cy = free.star_center
    bad: list[tuple[tuple[float, float], float]] = []
    for (ax, ay), (bx, by) in _edge_loci_of_free(free):
        for j in range(samples + 1):
            f = j / samples
            qx, qy = ax + f * (bx - ax), ay + f * (by - ay)
            for k in range(mix_points):
                alpha = (k + 1) / (mix_points + 1)
                mix = ((1.0 - alpha) * qx + alpha * cx, (1.0 - alpha) * qy + alpha * cy)
                if not free.contains(mix):
                    bad.append(((qx, qy), alpha))
    return bad


# --- reference construction 1: a jump for a connected, star-convex set ------


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must be in (0, 1), got {delta!r}")


def scene_counterexample1(delta: float = 0.2) -> PlanarScene:
    """Free set = vertical segment {0} x [0, 1] plus the thin strip
    [-1, 0] x [0, delta], inside a wide box.  Star-convex about (0, 0),
    yet the robustness of the family (t, 1) jumps at t = 0."""
    _check_delta(delta)
    free = PlanarFreeSet(
        segments=[((0.0, 0.0), (0.0, 1.0))],
        polygons=[[(-1.0, 0.0), (0.0, 0.0), (0.0, delta), (-1.0, delta)]],
        star_center=(0.0, 0.0),
    )
    box = [(-3.0, -1.0), (3.0, -1.0), (3.0, 2.0), (-3.0, 2.0)]
    return PlanarScene(box, free)


def counterexample1_point(t: float) -> tuple[float, float]:
    """The probe family: a horizontal line of states at height 1."""
    if not -1.0 <= t <= 1.0:
        raise ValidationError(f"family parameter must be in [-1, 1], got {t!r}")
    return (float(t), 1.0)


def counterexample1_exact(t: float, delta: float = 0.2) -> float:
    """Absolute robustness of the point (t, 1): (1-delta)/delta for t < 0
    (the strip is the only route), t for t >= 0 (shear onto the segment)."""
    _check_delta(delta)
    x, _ = counterexample1_point(t)
    return (1.0 - delta) / delta if x < 0.0 else x


# --- reference construction 2: a jump with the infimum attained -------------


def scene_counterexample2(
    a: float = 1.0, b: float = 1.0, angle: float = math.pi / 2
) -> PlanarScene:
    """Two isolated free points inside a triangle with apex at the origin.

    sigma_a sits at the midpoint of the edge toward (a, 0); sigma_b sits
    two thirds of the way along the edge at the given angle.  Global
    robustness is finite only on the two edges (the noise must lie beyond
    the free point, inside the triangle), which makes the value along the
    second family jump at the apex.
    """
    if a <= 0 or b <= 0:
        raise ValidationError("edge lengths must be positive")
    if not 0.0 < angle < math.pi:
        raise ValidationError(f"angle must be in (0, pi), got {angle!r}")
    cos, sin = math.cos(angle), math.sin(angle)
    sigma_a = (a / 2.0, 0.0)
    sigma_b = (2.0 * b / 3.0 * cos, 2.0 * b / 3.0 * sin)
    free = PlanarFreeSet(
        segments=[(sigma_a, sigma_a), (sigma_b, sigma_b)],
        star_center=None,
    )
    tri = [(0.0, 0.0), (a, 0.0), (b * cos, b * sin)]
    return PlanarScene(tri, free)


def _apex_parameter(which: str, t: float, a: float, b: float) -> float:
    """Parameter at which family ``which`` reaches the apex (a/2 on 'a',
    2b/3 on 'b'), after checking the family name and 0 <= t <= apex."""
    if which not in ("a", "b"):
        raise ValidationError(f"family must be 'a' or 'b', got {which!r}")
    apex = a / 2.0 if which == "a" else 2.0 * b / 3.0
    if not 0.0 <= t <= apex:
        raise ValidationError(f"family {which!r} needs t in [0, {apex}], got {t!r}")
    return apex


def counterexample2_point(
    which: str, t: float, a: float = 1.0, b: float = 1.0,
    angle: float = math.pi / 2
) -> tuple[float, float]:
    """Families sliding from a free point toward the apex: family 'a'
    starts at sigma_a (reaches the apex at t = a/2), family 'b' starts at
    sigma_b (reaches the apex at t = 2b/3)."""
    r = _apex_parameter(which, t, a, b) - t
    if which == "a":
        return (r, 0.0)
    return (r * math.cos(angle), r * math.sin(angle))


def counterexample2_exact(
    which: str, t: float, a: float = 1.0, b: float = 1.0
) -> float:
    """Global robustness along the two families: 2t/a on family 'a'
    (continuous up to 1 at the apex), 3t/b on family 'b' except at the
    apex itself, where the route through sigma_a takes over and the value
    drops to 1 while the one-sided limit is 2."""
    apex = _apex_parameter(which, t, a, b)
    if which == "a":
        return 2.0 * t / a
    return 1.0 if t == apex else 3.0 * t / b
