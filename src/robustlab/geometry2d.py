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
(global), 65 points per locus; a golden-section pass then refines around
the best sample.  Vertices are always among the samples, which makes the
two reference constructions below exact.

A chord counts only its hits ahead of p.  Hits within the guard distance
of the noise point tau itself are discarded: they correspond to s =
infinity and would otherwise masquerade as enormous finite values.  The
guard is TOLS.geometry_guard_factor * tol plus the rounding of a hit
point, _GUARD_ULPS float spacings of the largest coordinate at play.

Free-set polygons and the state space must be convex (ValidationError
otherwise).  Membership and the chord tests read geometry prepared at the
scope where it stays fixed.  Per scene: each polygon face as its first
vertex and inward unit normal, each segment's endpoints, direction and
length, and each locus with its length.  Per point p: each face's offset
g = n.(p - v) + tol, each segment's endpoints relative to p and their
cross term, and the guard distance.  p is in a polygon when every g >= 0
and on a segment within distance tol; ``contains``, the convexity and
vertex checks and the solves all use this one rule, so a solve is 0
wherever ``contains`` holds.  A chord enters a polygon where it has
crossed every face and costs only the products with its direction.

Points are (x, y) tuples and all arithmetic is on plain Python floats:
a solve makes hundreds of chord tests on 2-vectors, where array calls
would cost more than the arithmetic, and the module needs no numpy.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .config import TOLS, FrozenRecord, check_real
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

# a solve samples _RESOLUTION + 1 evenly spaced points per locus, ends included
_RESOLUTION = 64
# golden-section refinement stops once its bracket of noise points is this short
_REFINE_TOL = 1e-9
# a hit point is computed to within a few float spacings of the largest
# coordinate at play, p's or the free set's (a hit near tau lies on the
# free set, so tau is no larger), amplified where the chord meets the
# component at a grazing angle; this many spacings cover angles down to
# about 1e-4 rad, and the guard adds them so that wide scenes cannot pass
# the hit at tau itself off as an enormous finite weight
_GUARD_ULPS = 1024
# the largest |x| or |y| of a planar point: differences of coordinates stay
# below 2e150 and the chord tests' products of two of them below 4e300, so
# no intermediate overflows to inf (NaN and inf fail the test too)
_MAX_COORD = 1e150


def _pt(p: _Point) -> _Pt:
    if isinstance(p, (str, bytes)):
        raise ValidationError(f"planar point must be two numbers, got {p!r}")
    try:
        x, y = p
        x, y = float(x), float(y)
    except (TypeError, ValueError):
        raise ValidationError(f"planar point must be two numbers, got {p!r}") from None
    if not (-_MAX_COORD <= x <= _MAX_COORD and -_MAX_COORD <= y <= _MAX_COORD):
        raise ValidationError(
            f"planar point {p!r} must have finite coordinates of at most {_MAX_COORD:g} in size"
        )
    return (x, y)


def _edges(poly: Sequence[_Pt]):
    """Consecutive vertex pairs of a closed polygon, last edge back to the first."""
    return zip(poly, (*poly[1:], poly[0]))


def _ccw(vertices: Sequence[_Point]) -> tuple:
    """The vertices of a convex polygon, counterclockwise, and its faces
    (see :func:`_faces`).

    ValidationError for fewer than three vertices, a vertex repeated next
    to itself (its edge would have no normal), zero area, or a vertex
    outside the half-plane of another face, which is what a reflex vertex
    or a self-crossing outline gives.  Collinear vertices are accepted.
    """
    pts = tuple(_pt(v) for v in vertices)
    if len(pts) < 3:
        raise ValidationError("a polygon needs at least three vertices")
    if any(v == w for v, w in _edges(pts)):
        raise ValidationError("a polygon may not repeat a vertex next to itself")
    area2 = sum(ax * by - ay * bx for (ax, ay), (bx, by) in _edges(pts))
    if abs(area2) < 1e-15:
        raise ValidationError("degenerate polygon (zero area)")
    pts = pts if area2 > 0 else pts[::-1]
    faces = _faces(pts)
    for v in pts:
        if not _inside(_offsets(*v, faces, TOLS.geometry_membership)):
            raise ValidationError(
                f"polygon is not convex: vertex {list(v)} lies outside another edge"
            )
    return pts, faces


def _faces(poly: tuple[_Pt, ...]) -> tuple[tuple[float, float, float, float], ...]:
    """Each edge of a counterclockwise polygon as (vx, vy, nx, ny): its
    first vertex and its inward unit normal."""
    faces = []
    for (vx, vy), (wx, wy) in _edges(poly):
        ex, ey = wx - vx, wy - vy
        norm = math.hypot(ex, ey)
        faces.append((vx, vy, -ey / norm, ex / norm))
    return tuple(faces)


def _offsets(qx: float, qy: float, faces, tol: float) -> tuple[tuple[float, float, float], ...]:
    """Each face's record (nx, ny, g) for the point q, with g = n.(q - v) + tol
    the distance of q inside the face relaxed outward by tol."""
    return tuple((nx, ny, (nx * (qx - vx) + ny * (qy - vy)) + tol) for vx, vy, nx, ny in faces)


def _inside(offsets) -> bool:
    """Whether a point lies in a convex polygon, from its face records
    (see :func:`_offsets`): inside every face relaxed outward by tol."""
    return all(g >= 0.0 for _, _, g in offsets)


def _segment(a: _Pt, b: _Pt) -> tuple[float, ...]:
    """A segment or noise locus as (ax, ay, bx, by, ex, ey, elen): its
    endpoints, its direction b - a and its length."""
    (ax, ay), (bx, by) = a, b
    ex, ey = bx - ax, by - ay
    return (ax, ay, bx, by, ex, ey, math.hypot(ex, ey))


class PlanarFreeSet(FrozenRecord):
    """Union of segments and convex polygons, with an optional star center.

    Segments may be degenerate (both endpoints equal), representing
    isolated points.  Polygons are stored counterclockwise regardless of
    input orientation.  Points are stored as (x, y) tuples of floats,
    and the chord tests' per-component records (see :func:`_faces` and
    :func:`_segment`), the segment records of the segments and then of
    the polygon edges (``_loci``, the noise loci of absolute robustness)
    and the largest coordinate are built once here.  Instances are frozen
    and equal only to themselves.
    """

    segments: tuple[tuple[_Pt, _Pt], ...]
    polygons: tuple[tuple[_Pt, ...], ...]
    star_center: Optional[_Pt]
    _segment_records: tuple[tuple[float, ...], ...]
    _loci: tuple[tuple[float, ...], ...]
    _polygon_faces: tuple[tuple[tuple[float, float, float, float], ...], ...]
    _extent: float
    _repr_fields = ("segments", "polygons", "star_center")

    def __init__(
        self,
        segments: Sequence[tuple[_Point, _Point]] = (),
        polygons: Sequence[Sequence[_Point]] = (),
        star_center: Optional[_Point] = None,
    ):
        object.__setattr__(
            self, "segments", tuple((_pt(a), _pt(b)) for a, b in segments)
        )
        polygons = tuple(_ccw(p) for p in polygons)
        object.__setattr__(self, "polygons", tuple(pts for pts, _ in polygons))
        object.__setattr__(
            self, "_segment_records", tuple(_segment(a, b) for a, b in self.segments)
        )
        edges = (_segment(a, b) for poly in self.polygons for a, b in _edges(poly))
        object.__setattr__(self, "_loci", self._segment_records + tuple(edges))
        object.__setattr__(self, "_polygon_faces", tuple(faces for _, faces in polygons))
        object.__setattr__(self, "_extent", max(
            (abs(c) for rec in self._loci for c in rec[:4]), default=0.0
        ))
        object.__setattr__(
            self, "star_center", None if star_center is None else _pt(star_center)
        )
        if not self.segments and not self.polygons:
            raise ValidationError("free set needs at least one component")
        if self.star_center is not None and not self.contains(self.star_center):
            raise ConfigurationError("declared star center is not in the free set")

    def contains(self, p: _Point) -> bool:
        """Whether p is free: within tol = TOLS.geometry_membership of a
        segment, or at offset n.(p - v) + tol >= 0 from every face (v, n)
        of a polygon.  The rule reads the records the solves read (see
        :func:`_prepare`), and a solve is 0 wherever it holds."""
        qx, qy = _pt(p)
        return _free(_prepare(qx, qy, self, TOLS.geometry_membership))


class PlanarScene(FrozenRecord):
    """A convex polygonal state space together with a free subset.

    The noise loci of global robustness, the state-space edges with their
    lengths, are built once here; those of absolute robustness are the
    free set's.  Instances are frozen and equal only to themselves.
    """

    state_space: tuple[_Pt, ...]
    free: PlanarFreeSet
    _space_faces: tuple[tuple[float, float, float, float], ...]
    _space_loci: tuple[tuple[float, ...], ...]
    _repr_fields = ("state_space", "free")

    def __init__(self, state_space: Sequence[_Point], free: PlanarFreeSet):
        space, faces = _ccw(state_space)
        object.__setattr__(self, "state_space", space)
        object.__setattr__(self, "_space_faces", faces)
        object.__setattr__(self, "free", free)
        object.__setattr__(
            self, "_space_loci", tuple(_segment(a, b) for a, b in _edges(space))
        )
        for v in (v for ax, ay, bx, by, *_ in free._loci for v in ((ax, ay), (bx, by))):
            if not self.contains(v):
                raise ValidationError(f"free-set vertex {list(v)} lies outside the state space")

    def contains(self, p: _Point) -> bool:
        qx, qy = _pt(p)
        return _inside(_offsets(qx, qy, self._space_faces, TOLS.geometry_membership))


def _prepare(px: float, py: float, free: PlanarFreeSet, tol: float) -> tuple:
    """The tau-independent part of every chord test from a point p, and of
    its membership test (see :func:`_free`): (px, py, tol, guard,
    segments, polygons).

    A segment's record is (ax, ay, rx, ry, sx, sy, ex, ey, elen, cross)
    with r = a - p, s = b - p and cross = r x e; a polygon's is its face
    records for p (see :func:`_offsets`).  The guard is
    TOLS.geometry_guard_factor * tol plus _GUARD_ULPS float spacings of
    the largest coordinate of p and of the free set.
    """
    segments = []
    for ax, ay, bx, by, ex, ey, elen in free._segment_records:
        rx, ry = ax - px, ay - py
        segments.append((ax, ay, rx, ry, bx - px, by - py, ex, ey, elen, rx * ey - ry * ex))
    polygons = tuple(_offsets(px, py, faces, tol) for faces in free._polygon_faces)
    rounding = _GUARD_ULPS * math.ulp(max(abs(px), abs(py), free._extent))
    guard = TOLS.geometry_guard_factor * tol + rounding
    return px, py, tol, guard, tuple(segments), polygons


def _free(point) -> bool:
    """Whether p, prepared by :func:`_prepare`, is free: within tol of a
    segment, or inside every face of a polygon relaxed outward by tol."""
    _, _, tol, _, segments, polygons = point
    for _, _, rx, ry, _, _, ex, ey, elen, _ in segments:
        # the fraction along the segment of its point nearest p
        t = 0.0 if elen < 1e-15 else min(1.0, max(0.0, -(rx * ex + ry * ey) / (elen * elen)))
        if math.hypot(rx + t * ex, ry + t * ey) <= tol:
            return True
    return any(_inside(faces) for faces in polygons)


def _hit_polygon(dx: float, dy: float, faces) -> Optional[float]:
    """Entry parameter of the ray p + u*d, u in [0, 1], into a convex
    polygon whose faces are relaxed outward by tol, from its (nx, ny, g)
    face records for p (see :func:`_offsets`)."""
    t0, t1 = 0.0, 1.0
    for nx, ny, g in faces:
        f = nx * dx + ny * dy
        if abs(f) < 1e-15:
            if g < 0.0:
                return None
            continue
        u = -g / f
        if f > 0.0:
            if u > t0:
                t0 = u
        elif u < t1:
            t1 = u
    if t0 > t1:
        return None
    return t0


def _hit_segment(px: float, py: float, dx: float, dy: float, dlen: float, seg,
                 tol: float) -> Optional[float]:
    """Earliest parameter u in [0, 1] where p + u*d, |d| = dlen > 0, meets
    a segment (both endpoints inclusive, each end extended by tol), from
    the segment's record for p (see :func:`_prepare`); crossings behind p
    do not count."""
    ax, ay, rx, ry, sx, sy, ex, ey, elen, cross = seg
    if elen < 1e-15:  # degenerate component: a single point
        u = min(1.0, max(0.0, (rx * dx + ry * dy) / (dlen * dlen)))
        return u if math.hypot(px + u * dx - ax, py + u * dy - ay) <= tol else None
    denom = dx * ey - dy * ex
    if abs(denom) < 1e-12 * dlen * elen:
        # parallel; a hit needs collinearity within tol
        if abs(dx * ry - dy * rx) > tol * dlen:
            return None
        u1 = (rx * dx + ry * dy) / (dlen * dlen)
        u2 = (sx * dx + sy * dy) / (dlen * dlen)
        lo = min(u1, u2)
        return lo if 0.0 <= lo <= 1.0 else None
    u = cross / denom
    v = (rx * dy - ry * dx) / denom
    if -tol / elen <= v <= 1.0 + tol / elen and 0.0 <= u <= 1.0:
        return u
    return None


def _weight(tx: float, ty: float, point) -> float:
    """Mixing weight s = u/(1 - u) of noise tau from p, prepared by
    :func:`_prepare`, at the earliest valid chord parameter u where
    [p, tau] meets the free set; math.inf when there is none.

    Hits within the guard distance of tau itself are discarded (they
    encode u -> 1, i.e. unbounded s): that guard, which allows for the
    rounding of the hit point (see :func:`_prepare`), alone decides
    unreachability.  A hit at u = 1 that passes it has no finite s either.
    """
    px, py, tol, guard, segments, polygons = point
    dx, dy = tx - px, ty - py
    dlen = math.hypot(dx, dy)
    best = None
    # one pass, segments then polygons; the two loops keep the same rule
    # written out, since a shared helper costs a call per chord test
    if dlen >= 1e-15:  # else the chord is the point p, which no segment holds
        for seg in segments:
            u = _hit_segment(px, py, dx, dy, dlen, seg, tol)
            if u is None or not (best is None or u < best):
                continue
            if math.hypot(px + u * dx - tx, py + u * dy - ty) <= guard:
                continue
            best = u
    for faces in polygons:
        u = _hit_polygon(dx, dy, faces)
        if u is None or not (best is None or u < best):
            continue
        if math.hypot(px + u * dx - tx, py + u * dy - ty) <= guard:
            continue
        best = u
    if best is None or best == 1.0:
        return math.inf
    return best / (1.0 - best)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_refine(point, locus, f_lo, f_hi):
    """Golden-section scan of tau = a + f*(b - a) for f in [f_lo, f_hi] on
    a locus (see :func:`_segment`), returning the best value seen (the
    objective may be piecewise flat or infinite; we only need an upper
    envelope, never a certified minimum)."""
    ax, ay, _, _, ex, ey, span = locus
    lo, hi = f_lo, f_hi
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    v1 = _weight(ax + x1 * ex, ay + x1 * ey, point)
    v2 = _weight(ax + x2 * ex, ay + x2 * ey, point)
    best = min(v1, v2)
    # on a locus longer than about 1e7 the bracket can reach the float
    # spacing of f before it is _REFINE_TOL long; the inner points then
    # stop falling strictly inside it, and the scan ends there
    while (hi - lo) * span > _REFINE_TOL and lo < x1 < x2 < hi:
        if v1 <= v2:
            hi, x2, v2 = x2, x1, v1
            x1 = hi - _INV_PHI * (hi - lo)
            v1 = _weight(ax + x1 * ex, ay + x1 * ey, point)
        else:
            lo, x1, v1 = x1, x2, v2
            x2 = lo + _INV_PHI * (hi - lo)
            v2 = _weight(ax + x2 * ex, ay + x2 * ey, point)
        best = min(best, v1, v2)
    return best


def _solve(p: _Point, scene: PlanarScene, loci) -> float:
    """Least mixing weight from p over noise points on the given loci
    (see :func:`_segment`): 0 if p is free, else the best of
    ``_RESOLUTION + 1`` samples per locus, refined by a golden-section pass
    around the best sample."""
    px, py = q = _pt(p)
    if not scene.contains(q):
        raise ValidationError(f"point {list(q)} lies outside the state space")
    point = _prepare(px, py, scene.free, TOLS.geometry_membership)
    if _free(point):
        return 0.0
    best = math.inf
    best_locus = None
    best_idx = 0
    for locus in loci:
        ax, ay, _, _, ex, ey, _ = locus
        for j in range(_RESOLUTION + 1):
            f = j / _RESOLUTION
            v = _weight(ax + f * ex, ay + f * ey, point)
            if v < best:
                best, best_locus, best_idx = v, locus, j
    if best_locus is not None and math.isfinite(best):
        f_lo = max(0.0, (best_idx - 1) / _RESOLUTION)
        f_hi = min(1.0, (best_idx + 1) / _RESOLUTION)
        if f_hi > f_lo:
            best = min(best, _golden_refine(point, best_locus, f_lo, f_hi))
    return best


def absolute_robustness_2d(p: _Point, scene: PlanarScene) -> float:
    """Least s with (p + s*tau)/(1+s) free for some noise tau in the free
    set; math.inf when no finite mixture works."""
    return _solve(p, scene, scene.free._loci)


def global_robustness_2d(p: _Point, scene: PlanarScene) -> float:
    """Least s with (p + s*tau)/(1+s) free for some noise tau anywhere in
    the state space; math.inf when no finite mixture works.

    Along each ray from p the farthest admissible noise point is optimal,
    so candidates sweep the state-space boundary only.
    """
    return _solve(p, scene, scene._space_loci)


def planar_star_probe(free: PlanarFreeSet) -> list[tuple[tuple[float, float], float]]:
    """Probe star-convexity of the free set about its declared center: mix
    the ``_RESOLUTION + 1`` points a solve samples on each locus toward it at
    the weights k/8, k = 1..7, and return the (sample point, weight) pairs
    whose mixture is not free, none when the probe passes."""
    if free.star_center is None:
        raise ConfigurationError("free set declares no star center to probe")
    cx, cy = free.star_center
    bad: list[tuple[tuple[float, float], float]] = []
    for ax, ay, bx, by, *_ in free._loci:
        for j in range(_RESOLUTION + 1):
            f = j / _RESOLUTION
            qx, qy = ax + f * (bx - ax), ay + f * (by - ay)
            for alpha in (k / 8 for k in range(1, 8)):
                mix = ((1.0 - alpha) * qx + alpha * cx, (1.0 - alpha) * qy + alpha * cy)
                if not free.contains(mix):
                    bad.append(((qx, qy), alpha))
    return bad


# --- reference construction 1: a jump for a connected, star-convex set ------


def scene_counterexample1(delta: float = 0.2) -> PlanarScene:
    """Free set = vertical segment {0} x [0, 1] plus the thin strip
    [-1, 0] x [0, delta], inside a wide box.  Star-convex about (0, 0),
    yet the robustness of the family (t, 1) jumps at t = 0."""
    delta = check_real("delta", delta, 0.0, 1.0)
    free = PlanarFreeSet(
        segments=[((0.0, 0.0), (0.0, 1.0))],
        polygons=[[(-1.0, 0.0), (0.0, 0.0), (0.0, delta), (-1.0, delta)]],
        star_center=(0.0, 0.0),
    )
    box = [(-3.0, -1.0), (3.0, -1.0), (3.0, 2.0), (-3.0, 2.0)]
    return PlanarScene(box, free)


def counterexample1_point(t: float) -> tuple[float, float]:
    """The probe family: a horizontal line of states at height 1."""
    return (check_real("family parameter", t, -1.0, 1.0, "[]"), 1.0)


def counterexample1_exact(t: float, delta: float = 0.2) -> float:
    """Absolute robustness of the point (t, 1): (1-delta)/delta for t < 0
    (the strip is the only route), t for t >= 0 (shear onto the segment)."""
    delta = check_real("delta", delta, 0.0, 1.0)
    x, _ = counterexample1_point(t)
    return (1.0 - delta) / delta if x < 0.0 else x


# --- reference construction 2: a jump with the infimum attained -------------

# the triangle's third vertex, at angle pi/2 from the edge toward (1, 0);
# cos(pi/2) is 6.1e-17, not 0, and every solve on the scene reads it
_CE2_COS, _CE2_SIN = math.cos(math.pi / 2), math.sin(math.pi / 2)


def scene_counterexample2() -> PlanarScene:
    """Two isolated free points inside the triangle (0, 0), (1, 0),
    (cos(pi/2), sin(pi/2)), with apex at the origin.

    sigma_a sits at the midpoint of the edge toward (1, 0); sigma_b sits
    two thirds of the way along the other edge.  Global robustness is
    finite only on the two edges (the noise must lie beyond the free
    point, inside the triangle), which makes the value along the second
    family jump at the apex.
    """
    sigma_a = (0.5, 0.0)
    sigma_b = (2.0 / 3.0 * _CE2_COS, 2.0 / 3.0 * _CE2_SIN)
    free = PlanarFreeSet(
        segments=[(sigma_a, sigma_a), (sigma_b, sigma_b)],
        star_center=None,
    )
    tri = [(0.0, 0.0), (1.0, 0.0), (_CE2_COS, _CE2_SIN)]
    return PlanarScene(tri, free)


def _apex_parameter(which: str, t: float) -> tuple[float, float]:
    """The parameter at which family ``which`` reaches the apex (1/2 on
    'a', 2/3 on 'b'), and ``t`` as a float, after checking the family name
    and 0 <= t <= apex."""
    if which not in ("a", "b"):
        raise ValidationError(f"family must be 'a' or 'b', got {which!r}")
    apex = 0.5 if which == "a" else 2.0 / 3.0
    return apex, check_real(f"family {which!r} parameter t", t, 0.0, apex, "[]")


def counterexample2_point(which: str, t: float) -> tuple[float, float]:
    """Families sliding from a free point toward the apex: family 'a'
    starts at sigma_a (reaches the apex at t = 1/2), family 'b' starts at
    sigma_b (reaches the apex at t = 2/3)."""
    apex, t = _apex_parameter(which, t)
    r = apex - t
    if which == "a":
        return (r, 0.0)
    return (r * _CE2_COS, r * _CE2_SIN)


def counterexample2_exact(which: str, t: float) -> float:
    """Global robustness along the two families: 2t on family 'a'
    (continuous up to 1 at the apex), 3t on family 'b' except at the apex
    itself, where the route through sigma_a takes over and the value drops
    to 1 while the one-sided limit is 2."""
    apex, t = _apex_parameter(which, t)
    if which == "a":
        return 2.0 * t
    return 1.0 if t == apex else 3.0 * t
