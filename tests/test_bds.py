"""Bell-diagonal correlation triples on plain floats: validation, weights,
the closed form and the level-set grid."""

import math
import re

import numpy as np
import pytest

import robustlab
from robustlab import bds, engines, qstates
from robustlab.config import TOLS
from robustlab.errors import PositivityError, ValidationError


def levelset_reference(r, grid, slack=1e-12):
    """The vectorised numpy construction the plain-float grid replaced."""
    axis = np.linspace(-1.0, 1.0, grid)
    c = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    signs = np.array(
        [[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]]
    )
    weights = (1.0 + c @ signs.T) / 4.0
    c = c[np.min(weights, axis=1) >= -TOLS.bds_positivity]
    value = np.sort(np.abs(c), axis=1)[:, 1]
    inside = value <= r + slack
    return np.column_stack([c, value, inside.astype(float)])


class TestReexports:
    def test_same_objects(self):
        assert qstates.BellDiagonalParams is bds.BellDiagonalParams
        assert robustlab.BellDiagonalParams is bds.BellDiagonalParams
        for name in ("discord_robustness_bds", "discord_levelset_grid"):
            assert getattr(engines, name) is getattr(bds, name)
            assert getattr(robustlab, name) is getattr(bds, name)


class TestParams:
    def test_weights_are_a_float_tuple(self):
        w = bds.BellDiagonalParams(0.1, -0.2, 0.3).weights()
        assert type(w) is tuple and len(w) == 4
        assert all(type(v) is float for v in w)
        assert w == pytest.approx((0.4, 0.25, 0.15, 0.2), abs=1e-15)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("c", [
        (math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, math.nan),
        (math.inf, 0.0, 0.0), (0.0, -math.inf, 0.0),
    ])
    def test_non_finite_rejected(self, c):
        # NaN passed every tetrahedron inequality and gave discord 0
        with pytest.raises(ValidationError, match="finite") as info:
            bds.BellDiagonalParams(*c)
        assert not isinstance(info.value, PositivityError)
        with pytest.raises(ValidationError, match="finite"):
            bds.discord_robustness_bds(c)

    def test_weights_match_the_written_out_formula(self):
        # the sum runs 1 + c1 term + c2 term + c3 term, as written out here
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = qstates.random_bell_diagonal(rng)
            c1, c2, c3 = p.as_tuple()
            assert p.weights() == (
                (1.0 + c1 - c2 + c3) / 4.0,
                (1.0 - c1 + c2 + c3) / 4.0,
                (1.0 + c1 + c2 - c3) / 4.0,
                (1.0 - c1 - c2 - c3) / 4.0,
            )

    @pytest.mark.parametrize("c, name", [
        ((2.0, 0.0, 0.0), "1-c1-c2-c3"),   # also 1-c1+c2+c3 < 0
        ((-2.0, 0.0, 0.0), "1+c1-c2+c3"),  # also 1+c1+c2-c3 < 0
        ((0.0, 0.0, -2.0), "1-c1+c2+c3"),  # also 1+c1-c2+c3 < 0
        ((0.0, -2.0, 0.0), "1-c1+c2+c3"),  # also 1+c1+c2-c3 < 0
    ])
    def test_first_violated_inequality_named(self, c, name):
        # two inequalities fail; the message names the first in the order
        # of the class docstring
        message = rf"^{re.escape(name)} >= 0 violated \(got -1\)$"
        with pytest.raises(PositivityError, match=message):
            bds.BellDiagonalParams(*c)

    def test_numpy_scalars_become_floats(self):
        c = bds.BellDiagonalParams(np.float64(0.5), np.float32(0.25), 0)
        assert all(type(v) is float for v in c.as_tuple())


class TestLevelsetGrid:
    @pytest.mark.parametrize("grid", [2, 3, 4, 5, 7, 11, 20, 21, 33, 41])
    def test_bit_identical_to_numpy_reference(self, grid):
        for r in (0.0, 0.1, 0.3, 1.0 / 3.0, 1.0, math.inf):
            rows = bds.discord_levelset_grid(r, grid)
            ref = levelset_reference(r, grid)
            assert all(type(v) is float for row in rows for v in row)
            assert [tuple(row) for row in ref.tolist()] == rows

    def test_axis_ends_exactly_at_one(self):
        rows = bds.discord_levelset_grid(0.3, 7)
        assert max(row[0] for row in rows) == 1.0
        assert min(row[0] for row in rows) == -1.0
