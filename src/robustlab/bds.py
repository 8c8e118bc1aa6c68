"""Bell-diagonal states by their correlation triple, on plain Python floats.

A Bell-diagonal state (1/4)(1x1 + sum_i c_i sigma_i x sigma_i) is fixed by
(c1, c2, c3); its validity, its Bell-basis weights, its closed-form discord
robustness and the sublevel sets of that robustness need no matrices, so
this module runs without numpy.  ``qstates`` and ``engines`` re-export its
names; the matrix of the state is ``qstates.bell_diagonal``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import TOLS, check_count, check_real
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


@dataclass(frozen=True)
class BellDiagonalParams:
    """Correlation triple (c1, c2, c3) of a Bell-diagonal state.

    The correlations must be finite reals (ValidationError otherwise).  Validity
    requires the four tetrahedron inequalities
    1-c1-c2-c3 >= 0, 1-c1+c2+c3 >= 0, 1+c1-c2+c3 >= 0, 1+c1+c2-c3 >= 0;
    the error message names the first one violated.
    """

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        # NaN would pass every inequality below
        for name in ("c1", "c2", "c3"):
            value = check_real(f"correlation {name}", getattr(self, name))
            object.__setattr__(self, name, value)
        c1, c2, c3 = self.c1, self.c2, self.c3
        # in lexicographic order of the sign patterns, (-,-,-) first
        for signs, value in sorted(zip(_COLUMNS, _scaled_weights(c1, c2, c3))):
            if value < -TOLS.bds_positivity:
                name = "1" + "".join(
                    f"{'+' if s > 0 else '-'}c{a}" for a, s in enumerate(signs, 1)
                )
                raise PositivityError(f"{name} >= 0 violated (got {value:.6g})")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)

    def weights(self) -> tuple[float, float, float, float]:
        """Bell-basis weights in (phi+, phi-, psi+, psi-) order."""
        return tuple(v / 4.0 for v in _scaled_weights(self.c1, self.c2, self.c3))


def _middle_abs(c1: float, c2: float, c3: float) -> float:
    """Middle of the sorted absolute correlations, i.e. max over pairs of
    the pairwise minimum of |c_i|: the discord robustness."""
    return sorted((abs(c1), abs(c2), abs(c3)))[1]


def discord_robustness_bds(
    c: BellDiagonalParams | tuple[float, float, float]
) -> float:
    """Closed-form discord robustness of a Bell-diagonal state: the middle
    of the sorted absolute correlations."""
    if not isinstance(c, BellDiagonalParams):
        c = BellDiagonalParams(*c)
    return float(_middle_abs(c.c1, c.c2, c.c3))


def discord_levelset_grid(
    r: float, grid: int
) -> list[tuple[float, float, float, float, float]]:
    """Sample the region {discord robustness <= r} over the Bell-diagonal
    tetrahedron.

    Returns one row (c1, c2, c3, value, inside) per grid point of the
    cube [-1, 1]^3 that satisfies the four positivity inequalities, in
    order of c1, then c2, then c3.  The axis points are -1 + i*step with
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
            for c3 in axis:
                if min(_scaled_weights(c1, c2, c3)) / 4.0 < -TOLS.bds_positivity:
                    continue
                value = _middle_abs(c1, c2, c3)
                rows.append((c1, c2, c3, value, float(value <= limit)))
    return rows
