"""Bell-diagonal states by their correlation triple, on plain Python floats.

A Bell-diagonal state (1/4)(1x1 + sum_i c_i sigma_i x sigma_i) is fixed by
(c1, c2, c3); its validity, its Bell-basis weights, its matrix entries, its
closed-form discord robustness and the sublevel sets of that robustness,
and its zero-discord test need no matrix algebra, so this module runs
without numpy.  ``qstates`` and ``engines`` re-export its
public names; the state as a ``DensityMatrix`` is ``qstates.bell_diagonal``.
The matrix functions of ``free_sets`` and ``engines`` stay the reference
for the rules here.
"""

from __future__ import annotations

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
            for c3 in axis:
                if not _is_weight(min(_scaled_weights(c1, c2, c3))):
                    continue
                value = _middle_abs(c1, c2, c3)
                rows.append((c1, c2, c3, value, float(value <= limit)))
    return rows
