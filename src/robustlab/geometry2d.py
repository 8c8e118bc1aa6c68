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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import TOLS, resolve
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


def _pt(p: _Point) -> np.ndarray:
    a = np.asarray(p, dtype=float).reshape(2)
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"non-finite planar point {p!r}")
    return a


def _cross(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def _ccw(vertices: Sequence[_Point]) -> tuple[np.ndarray, ...]:
    pts = tuple(_pt(v) for v in vertices)
    if len(pts) < 3:
        raise ValidationError("a polygon needs at least three vertices")
    area2 = sum(_cross(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts)))
    if abs(area2) < 1e-15:
        raise ValidationError("degenerate polygon (zero area)")
    return pts if area2 > 0 else pts[::-1]


@dataclass(frozen=True, eq=False)
class PlanarFreeSet:
    """Union of segments and convex polygons, with an optional star center.

    Segments may be degenerate (both endpoints equal), representing
    isolated points.  Polygons are stored counterclockwise regardless of
    input orientation.
    """

    segments: tuple[tuple[np.ndarray, np.ndarray], ...]
    polygons: tuple[tuple[np.ndarray, ...], ...]
    star_center: Optional[np.ndarray]

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

    def contains(self, p: _Point, tol: float | None = None) -> bool:
        tol = resolve(tol, TOLS.geometry_membership)
        q = _pt(p)
        for a, b in self.segments:
            if _point_segment_dist(q, a, b) <= tol:
                return True
        for poly in self.polygons:
            if _in_convex_polygon(q, poly, tol):
                return True
        return False


@dataclass(frozen=True, eq=False)
class PlanarScene:
    """A convex polygonal state space together with a free subset."""

    state_space: tuple[np.ndarray, ...]
    free: PlanarFreeSet

    def __init__(self, state_space: Sequence[_Point], free: PlanarFreeSet):
        object.__setattr__(self, "state_space", _ccw(state_space))
        object.__setattr__(self, "free", free)
        tol = TOLS.geometry_membership
        for v in _free_vertices(free):
            if not _in_convex_polygon(v, self.state_space, tol):
                raise ValidationError(
                    f"free-set vertex {v.tolist()} lies outside the state space"
                )

    def contains(self, p: _Point, tol: float | None = None) -> bool:
        tol = resolve(tol, TOLS.geometry_membership)
        return _in_convex_polygon(_pt(p), self.state_space, tol)


def _free_vertices(free: PlanarFreeSet):
    for a, b in free.segments:
        yield a
        yield b
    for poly in free.polygons:
        yield from poly


def _point_segment_dist(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    d = b - a
    dd = float(d @ d)
    if dd < 1e-30:
        return float(np.hypot(*(q - a)))
    t = min(1.0, max(0.0, float((q - a) @ d) / dd))
    return float(np.hypot(*(q - (a + t * d))))


def _in_convex_polygon(q: np.ndarray, poly: tuple[np.ndarray, ...], tol: float) -> bool:
    for i, v in enumerate(poly):
        e = poly[(i + 1) % len(poly)] - v
        n = np.hypot(*e)
        if _cross(e, q - v) < -tol * n:
            return False
    return True


def _hit_polygon(p: np.ndarray, d: np.ndarray, poly: tuple[np.ndarray, ...],
                 tol: float) -> Optional[float]:
    """Entry parameter of the ray p + u*d, u in [0, 1], into a convex
    polygon whose faces are relaxed outward by tol (a distance)."""
    t0, t1 = 0.0, 1.0
    for i, v in enumerate(poly):
        e = poly[(i + 1) % len(poly)] - v
        norm = np.hypot(*e)
        # inward unit normal of a CCW edge
        n = np.array([-e[1], e[0]]) / norm
        f = float(n @ d)
        g = float(n @ (p - v)) + tol
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


def _hit_segment(p: np.ndarray, d: np.ndarray, a: np.ndarray, b: np.ndarray,
                 tol: float) -> Optional[float]:
    """Earliest parameter u in [0, 1] where p + u*d meets segment [a, b]
    (both endpoints inclusive), to within distance tol."""
    dlen = float(np.hypot(*d))
    if dlen < 1e-15:
        return 0.0 if _point_segment_dist(p, a, b) <= tol else None
    e = b - a
    elen = float(np.hypot(*e))
    if elen < 1e-15:  # degenerate component: a single point
        u = min(1.0, max(0.0, float((a - p) @ d) / (dlen * dlen)))
        return u if float(np.hypot(*(p + u * d - a))) <= tol else None
    denom = _cross(d, e)
    r = a - p
    if abs(denom) < 1e-12 * dlen * elen:
        # parallel; a hit needs collinearity within tol
        if abs(_cross(d, r)) > tol * dlen:
            return None
        u1 = float(r @ d) / (dlen * dlen)
        u2 = float((b - p) @ d) / (dlen * dlen)
        lo, hi = min(u1, u2), max(u1, u2)
        if hi < 0.0 or lo > 1.0:
            return None
        return max(lo, 0.0)
    u = _cross(r, e) / denom
    v = _cross(r, d) / denom
    if -tol / elen <= v <= 1.0 + tol / elen and -tol / dlen <= u <= 1.0 + tol / dlen:
        return min(1.0, max(0.0, u))
    return None


def _first_hit(p: np.ndarray, tau: np.ndarray, free: PlanarFreeSet,
               tol: float) -> Optional[float]:
    """Earliest valid chord parameter where [p, tau] meets the free set.

    Hits within the guard distance of tau itself are discarded (they
    encode u -> 1, i.e. unbounded s).
    """
    d = tau - p
    guard = TOLS.geometry_guard_factor * tol
    best = None
    hits = []
    for a, b in free.segments:
        hits.append(_hit_segment(p, d, a, b, tol))
    for poly in free.polygons:
        hits.append(_hit_polygon(p, d, poly, tol))
    for u in hits:
        if u is None:
            continue
        if float(np.hypot(*(p + u * d - tau))) <= guard:
            continue
        if best is None or u < best:
            best = u
    return best


def _s_of_hit(u: Optional[float]) -> float:
    if u is None or u >= 1.0 - 1e-12:
        return math.inf
    return u / (1.0 - u)


def _edge_loci(polyline: Sequence[np.ndarray], closed: bool):
    n = len(polyline)
    stop = n if closed else n - 1
    for i in range(stop):
        yield polyline[i], polyline[(i + 1) % n]


def _value_for_tau(p, tau, free, tol):
    return _s_of_hit(_first_hit(p, tau, free, tol))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_refine(p, a, b, f_lo, f_hi, free, tol, refine_tol):
    """Golden-section scan of tau = a + f*(b - a) for f in [f_lo, f_hi],
    returning the best value seen (the objective may be piecewise flat or
    infinite; we only need an upper envelope, never a certified minimum)."""
    span = float(np.hypot(*(b - a)))
    lo, hi = f_lo, f_hi
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    v1 = _value_for_tau(p, a + x1 * (b - a), free, tol)
    v2 = _value_for_tau(p, a + x2 * (b - a), free, tol)
    best = min(v1, v2)
    while (hi - lo) * span > refine_tol:
        if v1 <= v2:
            hi, x2, v2 = x2, x1, v1
            x1 = hi - _INV_PHI * (hi - lo)
            v1 = _value_for_tau(p, a + x1 * (b - a), free, tol)
        else:
            lo, x1, v1 = x1, x2, v2
            x2 = lo + _INV_PHI * (hi - lo)
            v2 = _value_for_tau(p, a + x2 * (b - a), free, tol)
        best = min(best, v1, v2)
    return best


def _check_count(name: str, n) -> int:
    if int(n) != n or n < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {n!r}")
    return int(n)


def _check_refine_tol(refine_tol) -> float:
    if not (math.isfinite(refine_tol) and refine_tol > 0.0):
        raise ValidationError(f"refine_tol must be finite and > 0, got {refine_tol!r}")
    return float(refine_tol)


def _optimize_over_loci(p, loci, free, tol, resolution, refine_tol):
    """Minimum mixing weight over candidate noise points sampled along the
    given (a, b) loci, plus local golden refinement around the best sample."""
    best = math.inf
    best_locus = None
    best_idx = 0
    for a, b in loci:
        for j in range(resolution + 1):
            f = j / resolution
            v = _value_for_tau(p, a + f * (b - a), free, tol)
            if v < best:
                best, best_locus, best_idx = v, (a, b), j
    if best_locus is not None and math.isfinite(best):
        a, b = best_locus
        f_lo = max(0.0, (best_idx - 1) / resolution)
        f_hi = min(1.0, (best_idx + 1) / resolution)
        if f_hi > f_lo:
            best = min(best, _golden_refine(p, a, b, f_lo, f_hi, free, tol, refine_tol))
    return best


def absolute_robustness_2d(
    p: _Point,
    scene: PlanarScene,
    resolution: int = 64,
    refine_tol: float = 1e-9,
) -> float:
    """Least s with (p + s*tau)/(1+s) free for some noise tau in the free
    set; math.inf when no finite mixture works.  ``resolution`` must be an
    integer >= 1 and ``refine_tol`` finite and > 0 (ValidationError
    otherwise)."""
    resolution = _check_count("resolution", resolution)
    refine_tol = _check_refine_tol(refine_tol)
    tol = TOLS.geometry_membership
    q = _pt(p)
    if not scene.contains(q, tol):
        raise ValidationError(f"point {q.tolist()} lies outside the state space")
    if scene.free.contains(q, tol):
        return 0.0
    loci = list(_edge_loci_of_free(scene.free))
    return _optimize_over_loci(q, loci, scene.free, tol, resolution, refine_tol)


def global_robustness_2d(
    p: _Point,
    scene: PlanarScene,
    resolution: int = 64,
    refine_tol: float = 1e-9,
) -> float:
    """Least s with (p + s*tau)/(1+s) free for some noise tau anywhere in
    the state space; math.inf when no finite mixture works.

    Along each ray from p the farthest admissible noise point is optimal,
    so candidates sweep the state-space boundary only.  ``resolution`` and
    ``refine_tol`` are validated as in :func:`absolute_robustness_2d`.
    """
    resolution = _check_count("resolution", resolution)
    refine_tol = _check_refine_tol(refine_tol)
    tol = TOLS.geometry_membership
    q = _pt(p)
    if not scene.contains(q, tol):
        raise ValidationError(f"point {q.tolist()} lies outside the state space")
    if scene.free.contains(q, tol):
        return 0.0
    loci = list(_edge_loci(scene.state_space, closed=True))
    return _optimize_over_loci(q, loci, scene.free, tol, resolution, refine_tol)


def _edge_loci_of_free(free: PlanarFreeSet):
    for a, b in free.segments:
        yield a, b
    for poly in free.polygons:
        yield from _edge_loci(poly, closed=True)


def planar_star_probe(
    free: PlanarFreeSet,
    samples: int = 64,
    mix_points: int = 7,
    tol: float | None = None,
) -> list[tuple[tuple[float, float], float]]:
    """Probe star-convexity of the free set about its declared center.

    Mixes points sampled along every component toward the center and
    membership-tests each mixture; returns the list of violating
    (sample point, mixing fraction) pairs, empty when the probe passes.
    ``samples`` and ``mix_points`` must be integers >= 1 (ValidationError
    otherwise); with no mixtures the probe would pass without testing.
    """
    samples = _check_count("samples", samples)
    mix_points = _check_count("mix_points", mix_points)
    if free.star_center is None:
        raise ConfigurationError("free set declares no star center to probe")
    tol = resolve(tol, TOLS.geometry_membership)
    c = free.star_center
    bad: list[tuple[tuple[float, float], float]] = []
    for a, b in _edge_loci_of_free(free):
        for j in range(samples + 1):
            q = a + (j / samples) * (b - a)
            for k in range(mix_points):
                alpha = (k + 1) / (mix_points + 1)
                mix = (1.0 - alpha) * q + alpha * c
                if not free.contains(mix, tol):
                    bad.append(((float(q[0]), float(q[1])), alpha))
    return bad


# --- reference construction 1: a jump for a connected, star-convex set ------


def scene_counterexample1(delta: float = 0.2) -> PlanarScene:
    """Free set = vertical segment {0} x [0, 1] plus the thin strip
    [-1, 0] x [0, delta], inside a wide box.  Star-convex about (0, 0),
    yet the robustness of the family (t, 1) jumps at t = 0."""
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must be in (0, 1), got {delta!r}")
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
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must be in (0, 1), got {delta!r}")
    if not -1.0 <= t <= 1.0:
        raise ValidationError(f"family parameter must be in [-1, 1], got {t!r}")
    if t < 0.0:
        return (1.0 - delta) / delta
    return float(t)


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
    ea = np.array([1.0, 0.0])
    eb = np.array([math.cos(angle), math.sin(angle)])
    sigma_a = (a / 2.0) * ea
    sigma_b = (2.0 * b / 3.0) * eb
    free = PlanarFreeSet(
        segments=[(sigma_a, sigma_a), (sigma_b, sigma_b)],
        star_center=None,
    )
    tri = [(0.0, 0.0), tuple(a * ea), tuple(b * eb)]
    return PlanarScene(tri, free)


def counterexample2_point(
    which: str, t: float, a: float = 1.0, b: float = 1.0,
    angle: float = math.pi / 2
) -> tuple[float, float]:
    """Families sliding from a free point toward the apex: family 'a'
    starts at sigma_a (reaches the apex at t = a/2), family 'b' starts at
    sigma_b (reaches the apex at t = 2b/3)."""
    if which == "a":
        if not 0.0 <= t <= a / 2.0:
            raise ValidationError(f"family 'a' needs t in [0, {a / 2.0}], got {t!r}")
        return (a / 2.0 - t, 0.0)
    if which == "b":
        if not 0.0 <= t <= 2.0 * b / 3.0:
            raise ValidationError(
                f"family 'b' needs t in [0, {2.0 * b / 3.0}], got {t!r}"
            )
        r = 2.0 * b / 3.0 - t
        return (r * math.cos(angle), r * math.sin(angle))
    raise ValidationError(f"family must be 'a' or 'b', got {which!r}")


def counterexample2_exact(
    which: str, t: float, a: float = 1.0, b: float = 1.0
) -> float:
    """Global robustness along the two families: 2t/a on family 'a'
    (continuous up to 1 at the apex), 3t/b on family 'b' except at the
    apex itself, where the route through sigma_a takes over and the value
    drops to 1 while the one-sided limit is 2."""
    if which == "a":
        if not 0.0 <= t <= a / 2.0:
            raise ValidationError(f"family 'a' needs t in [0, {a / 2.0}], got {t!r}")
        return 2.0 * t / a
    if which == "b":
        if not 0.0 <= t <= 2.0 * b / 3.0:
            raise ValidationError(
                f"family 'b' needs t in [0, {2.0 * b / 3.0}], got {t!r}"
            )
        if t == 2.0 * b / 3.0:
            return 1.0
        return 3.0 * t / b
    raise ValidationError(f"family must be 'a' or 'b', got {which!r}")
