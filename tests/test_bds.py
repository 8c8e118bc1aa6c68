"""Bell-diagonal correlation triples on plain floats: validation, weights,
the closed form and the level-set grid."""

import math
import re

import numpy as np
import pytest

import robustlab
from robustlab import bds, engines, free_sets, qstates
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
    c = c[np.min(weights, axis=1) >= -TOLS.psd]
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

    @pytest.mark.parametrize("p", [-0.5e-10, -2e-10])
    def test_positivity_is_the_density_matrix_rule(self, p):
        # Bell weights (1/2 - p, 1/2, 0, p): the least, p, is the state's least
        # eigenvalue, so the triple passes exactly when the matrix does
        c = tuple(map(float, np.array(bds.BELL_SIGNS) @ [0.5 - p, 0.5, 0.0, p]))
        try:
            qstates.DensityMatrix(_pauli_sum(c), (2, 2))
            is_state = True
        except PositivityError:
            is_state = False
        assert is_state == (p >= -TOLS.psd)
        if is_state:
            assert min(bds.BellDiagonalParams(*c).weights()) == pytest.approx(p, abs=1e-15)
        else:
            message = r"^1-c1-c2-c3 >= 0 violated \(got -8e-10\)$"
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


class TestRecord:
    def test_frozen(self):
        c = bds.BellDiagonalParams(0.1, 0.2, 0.3)
        for name in ("c1", "c4"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(c, name, 0.0)
        with pytest.raises(AttributeError, match="cannot delete field 'c1'"):
            del c.c1
        assert c.as_tuple() == (0.1, 0.2, 0.3)

    def test_equality_repr_and_hash_by_value(self):
        c = bds.BellDiagonalParams(0.1, -0.0, 0.3)
        same = bds.BellDiagonalParams(c1=0.1, c2=0.0, c3=0.3)
        assert c == same and hash(c) == hash(same) and len({c, same}) == 1
        assert c != bds.BellDiagonalParams(0.1, 0.0, 0.2)
        assert c != (0.1, 0.0, 0.3)
        assert repr(c) == "BellDiagonalParams(c1=0.1, c2=-0.0, c3=0.3)"


def _pauli_sum(c):
    """The complex sum (1/4)(1x1 + sum_a c_a sigma_a x sigma_a) that
    qstates.bell_diagonal built before BellDiagonalParams.matrix."""
    paa = [np.kron(s, s) for s in qstates.PAULI]
    return 0.25 * (np.eye(4, dtype=complex) + c[0] * paa[0] + c[1] * paa[1] + c[2] * paa[2])


def _triples(seed, n):
    """n valid triples: half uniform on the tetrahedron, half near an axis
    (the other two correlations 1e-2 to 1e-12 of the first, where
    zero-discord turns on), and the corners and the center."""
    rng = np.random.default_rng(seed)
    signs = np.array(bds.BELL_SIGNS)
    out = [bds.BellDiagonalParams(*map(float, c)) for c in [*signs.T, np.zeros(3)]]
    for k in range(n - len(out)):
        if k % 2 == 0:
            c = signs @ rng.dirichlet(np.ones(4))
        else:
            c = np.zeros(3)
            c[rng.integers(3)] = rng.uniform(-1.0, 1.0)
            c += np.max(np.abs(c)) * 10.0 ** -rng.uniform(2.0, 12.0) * rng.uniform(-1.0, 1.0, 3)
        try:
            out.append(bds.BellDiagonalParams(*map(float, c)))
        except PositivityError:
            continue
    return out


TRIPLES = _triples(26, 1500)


class TestMatrixParity:
    """The plain-float rules against the matrix engines, which stay the reference."""

    def test_enough_triples(self):
        assert len(TRIPLES) >= 1000
        free = sum(bds.has_zero_discord_bds(c) for c in TRIPLES)
        assert 100 <= free <= len(TRIPLES) - 100

    def test_matrix_is_the_pauli_sum_to_the_bit(self):
        extra = [(0.0, -0.0, 0.0), (-0.0, -0.0, -0.0), (0.5, 0.5, -0.0), (-0.5, 0.5, 1e-300),
                 (5e-324, -5e-324, 0.0), (1 / 3, -1 / 3, 1 / 3)]
        for c in [*TRIPLES, *(bds.BellDiagonalParams(*c) for c in extra)]:
            ref = _pauli_sum(c.as_tuple())
            assert np.array(c.matrix(), dtype=complex).tobytes() == ref.tobytes(), c
            assert qstates.bell_diagonal(c).mat.tobytes() == ref.tobytes(), c

    def test_zero_discord_rays(self):
        sigma = qstates.maximally_mixed()
        oracles = [free_sets.oracle_by_name(n) for n in ("zero-discord", "bds-axes")]
        for c in TRIPLES:
            rho = qstates.bell_diagonal(c)
            want = 0.0 if bds.has_zero_discord_bds(c) else math.inf
            for oracle in oracles:
                assert engines.robustness_along_ray(rho, sigma, oracle).value == want, c

    @pytest.mark.parametrize("c1", [0.9, -0.5, 0.1, 0.01])
    def test_sweep_across_the_relative_threshold(self, c1):
        # c2/c1 = sqrt(1e-9) (1 + d): the defect c2^2 is 1e-9 (1 + 2d) of
        # c1^2, so the state is free for d below about 5e-10 and not above;
        # the relative offsets d stay well clear of the matrix path's rounding
        sigma = qstates.maximally_mixed()
        oracles = [free_sets.oracle_by_name(n) for n in ("zero-discord", "bds-axes")]
        for d in (-1e-4, -1e-5, -1e-6, 1e-6, 1e-5, 1e-4):
            for c in [(c1, c1 * math.sqrt(1e-9) * (1.0 + d), 0.0),
                      (0.0, -0.1 * c1, c1 * math.sqrt(1e-9) * (1.0 + d) * -0.1)]:
                params = bds.BellDiagonalParams(*c)
                free = bds.has_zero_discord_bds(params)
                assert free == (d < 0), (c, d)
                rho = qstates.bell_diagonal(params)
                for oracle in oracles:
                    value = engines.robustness_along_ray(rho, sigma, oracle).value
                    assert value == (0.0 if free else math.inf), (c, d, oracle.name)
