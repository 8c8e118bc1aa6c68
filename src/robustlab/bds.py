"""Bell-diagonal states by their correlation triple, on plain Python floats.

A Bell-diagonal state (1/4)(1x1 + sum_i c_i sigma_i x sigma_i) is fixed by
(c1, c2, c3); its validity, its Bell-basis weights, its matrix entries, its
closed-form discord robustness and the sublevel sets of that robustness,
the axis optimiser's search for that robustness, and its zero-discord test
need no matrix algebra, so this module runs without numpy.  ``qstates``
and ``engines`` re-export its public names; the state as a
``DensityMatrix`` is ``qstates.bell_diagonal``.
The matrix functions of ``free_sets`` and ``engines`` stay the reference
for the rules here.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple, Optional

from .config import TOLS, FrozenRecord, check_count, check_real
from .errors import PositivityError

__all__ = [
    "BellDiagonalParams",
    "discord_robustness_bds",
    "discord_levelset_grid",
]

# the level-set grid holds grid**3 candidate points: 101 is about a million
MAX_LEVELSET_GRID = 101
# level-set points with value <= r + this count as inside, so that grid
# points exactly on the boundary do despite rounding
_LEVEL_SLACK = 1e-12

# Bell sign table S: row a holds the a-th correlation of each Bell state, in
# (phi+, phi-, psi+, psi-) order, so the state with correlations c has the
# Bell weights p_i = (1 + sum_a S_ai c_a)/4 (Horodecki & Horodecki, PRA 54,
# 1838 (1996)).  Each Bell state is an eigenvector of sigma_a x sigma_a with
# eigenvalue S_ai.
BELL_SIGNS = (
    (1.0, -1.0, 1.0, -1.0),
    (-1.0, 1.0, 1.0, -1.0),
    (1.0, 1.0, -1.0, -1.0),
)
_COLUMNS = tuple(zip(*BELL_SIGNS))  # the correlation triple of each Bell state


def _scaled_weights(c1: float, c2: float, c3: float) -> list[float]:
    """The four 4 p_i = 1 + sum_a S_ai c_a, in Bell order."""
    return [1.0 + s1 * c1 + s2 * c2 + s3 * c3 for s1, s2, s3 in _COLUMNS]


def _is_weight(scaled: float) -> bool:
    """Whether 4 p_i = ``scaled`` is a state's Bell weight: p_i >= -TOLS.psd.
    The Bell weights are the state's eigenvalues, so this is the rule a
    validated ``DensityMatrix`` applies to them."""
    return scaled / 4.0 >= -TOLS.psd


class BellDiagonalParams(FrozenRecord):
    """Correlation triple (c1, c2, c3) of a Bell-diagonal state.

    The correlations must be finite reals (ValidationError otherwise).  Validity
    requires the four tetrahedron inequalities
    1-c1-c2-c3 >= 0, 1-c1+c2+c3 >= 0, 1+c1-c2+c3 >= 0, 1+c1+c2-c3 >= 0;
    each left side is 4 p_i, and p_i >= -TOLS.psd passes (see
    :func:`_is_weight`).  The error message names the first one violated
    and its value.  Instances are frozen, and equal when their triples are.
    """

    _repr_fields = ("c1", "c2", "c3")

    def __init__(self, c1: float, c2: float, c3: float):
        # NaN would pass every inequality below
        for name, value in (("c1", c1), ("c2", c2), ("c3", c3)):
            object.__setattr__(self, name, check_real(f"correlation {name}", value))
        c1, c2, c3 = self.c1, self.c2, self.c3
        # in lexicographic order of the sign patterns, (-,-,-) first
        for signs, value in sorted(zip(_COLUMNS, _scaled_weights(c1, c2, c3))):
            if not _is_weight(value):
                name = "1" + "".join(
                    f"{'+' if s > 0 else '-'}c{a}" for a, s in enumerate(signs, 1)
                )
                raise PositivityError(f"{name} >= 0 violated (got {value:.6g})")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)

    def weights(self) -> tuple[float, float, float, float]:
        """Bell-basis weights in (phi+, phi-, psi+, psi-) order."""
        return tuple(v / 4.0 for v in _scaled_weights(self.c1, self.c2, self.c3))

    def matrix(self) -> list[list[float]]:
        """Rows of the state's matrix in the computational basis; it is real.

        The entries are (1 +- c3)/4 on the diagonal and (c1 -+ c2)/4 on the
        antidiagonal, rounded as the sum 1x1 + c1 XX + c2 YY + c3 ZZ of
        complex arrays rounds them, to the bit and the sign of zero.
        """
        c1, c2, c3 = self.c1, self.c2, self.c3
        d, e = 0.25 * (1.0 + c3), 0.25 * (1.0 - c3)
        # 0.0 + c1 turns c1 = -0.0 into +0.0, as adding the identity's zero does
        f, g = 0.25 * (0.0 + c1 - c2), 0.25 * (0.0 + c1 + c2)
        return [[d, 0.0, 0.0, f], [0.0, e, g, 0.0], [0.0, g, e, 0.0], [f, 0.0, 0.0, d]]


def _params(c: BellDiagonalParams | tuple[float, float, float]) -> BellDiagonalParams:
    return c if isinstance(c, BellDiagonalParams) else BellDiagonalParams(*c)


def _middle_abs(c1: float, c2: float, c3: float) -> float:
    """Middle of the sorted absolute correlations, i.e. max over pairs of
    the pairwise minimum of |c_i|: the discord robustness."""
    return sorted((abs(c1), abs(c2), abs(c3)))[1]


def discord_robustness_bds(
    c: BellDiagonalParams | tuple[float, float, float]
) -> float:
    """Closed-form discord robustness of a Bell-diagonal state: the middle
    of the sorted absolute correlations."""
    return float(_middle_abs(*_params(c).as_tuple()))


def discord_weight_free(total: float, allowed: float) -> bool:
    """The zero-discord rule on a two-qubit state's weights, total = |y|^2
    + |T|_F^2 and allowed = lambda_max(y y^T + T^T T): free when the defect
    total - allowed is at most TOLS.discord_membership of total.  Both
    weights scale by 1/(1+s)^2 toward the star kernel, so the rule is the
    same all along such a ray."""
    return total - allowed <= TOLS.discord_membership * total


def has_zero_discord_bds(c: BellDiagonalParams | tuple[float, float, float]) -> bool:
    """Whether a Bell-diagonal state has zero discord: the rule of
    :func:`discord_weight_free` on y = 0 and T = diag(c), so total is
    sum c_i^2 and allowed max c_i^2.  With x = 0 and T diagonal it is also
    the ``bds-axes`` test, and along the ray toward 1/4, which scales c,
    the answer never changes: the ray's value on both sets is 0 or inf."""
    squares = [v * v for v in _params(c).as_tuple()]
    return discord_weight_free(sum(squares), max(squares))


def discord_levelset_grid(
    r: float, grid: int
) -> list[tuple[float, float, float, float, float]]:
    """Sample the region {discord robustness <= r} over the Bell-diagonal
    tetrahedron.

    Returns one row (c1, c2, c3, value, inside) per grid point of the
    cube [-1, 1]^3 that is a state by the rule of
    :class:`BellDiagonalParams`, in order of c1, then c2, then c3.  The
    axis points are -1 + i*step with
    step = 2/(grid - 1) and the last point exactly 1; value is the middle
    sorted absolute correlation and inside is 1.0 if value <= r (with a
    small slack so exact-boundary grid points count as inside), else 0.0.
    ``r`` must be a number >= 0, inf included (NaN would mark every point
    outside), and ``grid`` an integer in [2, MAX_LEVELSET_GRID]
    (ValidationError otherwise).
    """
    r = check_real("level", r, 0.0, ends="[]")
    grid = check_count("grid", grid, least=2, most=MAX_LEVELSET_GRID)
    step = 2.0 / (grid - 1)
    axis = [-1.0 + i * step for i in range(grid - 1)] + [1.0]
    limit = r + _LEVEL_SLACK
    rows = []
    for c1 in axis:
        for c2 in axis:
            # 4 p_i = base_i + s3 c3 with base_i = (1 + s1 c1) + s2 c2, rounded
            # as _scaled_weights rounds it.  Adding c3 is monotone, so the
            # least weight with s3 = +1 is min(base) + c3 to the bit and rises
            # along the axis, and the one with s3 = -1 falls: the states form
            # one run of c3, whose ends bisection finds exactly.
            plus = min((1.0 + s1 * c1) + s2 * c2 for s1, s2, s3 in _COLUMNS if s3 > 0)
            minus = min((1.0 + s1 * c1) + s2 * c2 for s1, s2, s3 in _COLUMNS if s3 < 0)
            start = bisect_left(axis, True, key=lambda c3: _is_weight(plus + c3))
            stop = bisect_left(axis, True, lo=start, key=lambda c3: not _is_weight(minus - c3))
            for c3 in axis[start:stop]:
                value = _middle_abs(c1, c2, c3)
                rows.append((c1, c2, c3, value, float(value <= limit)))
    return rows


# --- the axis optimiser's search --------------------------------------------

# min_scaling_robustness takes sigma's eigenvalues >= _SUPPORT_MIN as its
# support and those <= _KERNEL_MAX as its kernel; one strictly between
# leaves the rank undecided
_KERNEL_MAX = TOLS.support_cutoff / 10.0
_SUPPORT_MIN = TOLS.support_cutoff * 10.0


def _unit_steps(n: int) -> list[float]:
    """n points from 0 to 1 as np.linspace(0.0, 1.0, n) rounds them:
    i * (1/(n - 1)), and the last exactly 1."""
    step = 1.0 / (n - 1)
    return [i * step for i in range(n - 1)] + [1.0]


_ZOOM_STEPS = _unit_steps(33)  # bracket fractions of every zoom round
_ZOOM_ROUNDS = 64  # hard bound on zoom rounds
_ZOOM_XATOL = 1e-9  # zooming stops once every bracket in k is this narrow
# the grid scan evaluates 3*grid points
MAX_AXIS_GRID = 10_000


class _AxisPencil:
    """min_scaling_robustness(rho, sigma_a(k)) along one axis a, for the
    Bell-diagonal rho with the Bell weights p, on plain floats.

    rho and the axis state sigma_a(k) = (1/4)(1x1 + k sigma_a x sigma_a)
    are diagonal in the Bell basis, where sigma_a(k) has the weights
    w_i = (1 + k S_ai)/4 (S = BELL_SIGNS, row a): w+ = (1 + k)/4 on the
    two Bell states with S_ai = +1 and w- = (1 - k)/4 on the other two.
    Inside (-1, 1) every w_i is support, the weight of rho off it is the
    rounding of 1 - sum p (far below TOLS.support_leak), and the value is
    max(0, max_i p_i/w_i - 1).  Rounding a division by w > 0 is monotone,
    so max_i p_i/w_i is max(P+/w+, P-/w-) to the bit, with P+ and P- the
    largest p_i on each pair.  At k = +-1 one pair has the weight 1/2 and
    the other exactly 0: the value there is inf when the weight of rho on
    that kernel exceeds TOLS.support_leak, else 2 P - 1 on the support
    pair (0 when negative).  Both ends are fixed per axis, so each point
    costs two divisions.
    """

    __slots__ = ("big_plus", "big_minus", "at_plus_one", "at_minus_one")

    def __init__(self, p: tuple[float, ...], signs: tuple[float, ...]):
        plus = [pi for pi, s in zip(p, signs) if s > 0]
        minus = [pi for pi, s in zip(p, signs) if s < 0]
        self.big_plus, self.big_minus = max(plus), max(minus)
        self.at_plus_one, self.at_minus_one = self._end(plus), self._end(minus)

    @staticmethod
    def _end(support: list[float]) -> float:
        """The value at the end of the axis whose support carries the
        weights ``support`` of rho."""
        if 1.0 - (support[0] + support[1]) > TOLS.support_leak:
            return math.inf
        lam = max(support) / 0.5
        return lam - 1.0 if lam > 1.0 else 0.0

    def scan(self, lo: float, hi: float, steps: list[float]) -> tuple[list[float], list[float]]:
        """The points k = lo + (hi - lo) t for t in ``steps``, and the value
        at each.  A point whose vanishing weight (1 - |k|)/4 would fall
        below _SUPPORT_MIN, that is 1 - |k| < 40 * cutoff, snaps to k = +-1,
        so every weight is exactly 0 or at least _SUPPORT_MIN and the
        support rank is always decided.  With lo <= hi the points are in
        ascending order."""
        width = hi - lo
        ks, vals = [], []
        for t in steps:
            k = lo + width * t
            if 0.25 * (1.0 - abs(k)) < _SUPPORT_MIN:
                k, value = (1.0, self.at_plus_one) if k > 0.0 else (-1.0, self.at_minus_one)
            else:
                lam = max(self.big_plus / (0.25 * (1.0 + k)), self.big_minus / (0.25 * (1.0 - k)))
                value = lam - 1.0 if lam > 1.0 else 0.0
            ks.append(k)
            vals.append(value)
        return ks, vals


class AxisSearch(NamedTuple):
    """Outcome of :func:`discord_axis_search`.  ``free_weights`` and
    ``noise_weights`` are the Bell weights of the free axis state sigma and
    of the noise state tau with rho + value tau = (1 + value) sigma; both
    are None when the value is 0, and rho itself is then the free state."""

    value: float
    method: str
    iterations: int
    bracket_width: float
    free_weights: Optional[list[float]]
    noise_weights: Optional[list[float]]


def discord_axis_search(
    c: BellDiagonalParams | tuple[float, float, float], grid: int = 64
) -> AxisSearch:
    """Discord robustness of a Bell-diagonal state by direct search over
    the axis states sigma_a(k) = (1/4)(1x1 + k sigma_a x sigma_a),
    a = 1, 2, 3 and k in [-1, 1], on plain floats.

    Each per-axis objective min_scaling_robustness(rho, sigma_a(k)) is a
    maximum of terms 4 p_i/(1 + k S_ai) - 1, hence convex in k, so the
    neighbours of the best point always bracket the optimum: a
    ``grid``-point scan of [-1, 1] is followed by zoom rounds of 33 points
    into those brackets until every bracket is at most _ZOOM_XATOL = 1e-9
    wide or stops narrowing (at most _ZOOM_ROUNDS rounds); every round
    evaluates all three axes (see :class:`_AxisPencil`).  Ties resolve to
    the first point and the lowest axis index, making witnesses
    deterministic.  ``grid`` must be an integer in [2, MAX_AXIS_GRID]
    (ValidationError otherwise).  ``iterations`` counts the evaluated
    points and ``bracket_width`` is the final bracket in k of the best
    axis.

    A rho with at most one nonzero correlation is itself an axis state, so
    it is free: value exactly 0, no evaluation and a bracket of width 0
    (axis 1 when every correlation is 0).  The test is for exact zeros, so
    a genuine value of 1e-11 still goes through the scan.
    """
    c = _params(c)
    grid = check_count("grid", grid, least=2, most=MAX_AXIS_GRID)
    coords = c.as_tuple()
    on_axis = [a for a, ca in enumerate(coords) if ca != 0.0]
    if len(on_axis) <= 1:  # rho is itself the axis state sigma_a(c_a)
        axis = on_axis[0] + 1 if on_axis else 1
        return AxisSearch(0.0, f"axis-opt[a={axis}]", 0, 0.0, None, None)
    p = c.weights()
    pencils = [_AxisPencil(p, signs) for signs in BELL_SIGNS]
    brackets = [(-1.0, 1.0)] * 3  # the grid scan covers [-1, 1]
    best = [(math.inf, 0.0)] * 3  # (value, k) per axis
    steps = _unit_steps(grid)
    evals = 0
    for zoom in range(_ZOOM_ROUNDS + 1):
        done = True
        for a, pencil in enumerate(pencils):
            ks, vals = pencil.scan(*brackets[a], steps)
            v = min(vals)
            i = vals.index(v)
            k = ks[i]
            if v < best[a][0]:
                best[a] = (v, k)
            # the nearest distinct neighbours of the best point bracket the
            # optimum; the points ascend, and those snapped to +-1 repeat
            # (a point equal to k before i would have been the minimum)
            j = i + 1
            while j < len(ks) and ks[j] == k:
                j += 1
            bracket = (ks[i - 1] if i > 0 else k, ks[j] if j < len(ks) else k)
            # a zoom round (not the grid scan) that returns its own bracket
            # would repeat forever (all inner points snapped to +-1, or the
            # bracket is at float resolution), so that axis is as narrow as
            # it gets
            if not (bracket[1] - bracket[0] <= _ZOOM_XATOL or (zoom and bracket == brackets[a])):
                done = False
            brackets[a] = bracket
        evals += 3 * len(steps)
        if done:
            break
        steps = _ZOOM_STEPS
    best_axis = min(range(3), key=lambda a: best[a][0])  # lowest axis on ties
    best_val, best_k = best[best_axis]
    lo, hi = brackets[best_axis]
    if best_val > 0.0:
        # The noise witness ((1+v) sigma - rho)/v is Bell diagonal with the
        # weights w + d/v, d = w - p.  Formed from w and p, rounding divided
        # by a small v left eigenvalues down to -4e-6.  So d comes from the
        # correlations of rho - sigma (c_a - k is exact near k) and v from d
        # (the value, to rounding), which keeps every weight >= 0 to
        # rounding; a d with no positive v means the value itself is
        # rounding (sigma's weights are rho's).
        e = list(coords)
        e[best_axis] -= best_k
        d = [-0.25 * (e[0] * s1 + e[1] * s2 + e[2] * s3) for s1, s2, s3 in _COLUMNS]
        w = [0.25 * (1.0 + best_k * s) for s in BELL_SIGNS[best_axis]]
        v_exact = max(-di / wi for di, wi in zip(d, w) if wi >= _SUPPORT_MIN)
        if v_exact > 0.0:
            return AxisSearch(
                best_val, f"axis-opt[a={best_axis + 1},k={best_k:.6g}]", evals, hi - lo,
                w, [wi + di / v_exact for di, wi in zip(d, w)],
            )
    return AxisSearch(0.0, f"axis-opt[a={best_axis + 1}]", evals, hi - lo, None, None)
