"""Real parameters: every public function checks them with
``config.check_real``, so a non-number or a value outside the interval
raises ValidationError naming the parameter."""

import math
import re

import numpy as np
import pytest

from robustlab import (
    AuditConfig,
    BellDiagonalParams,
    FreeSetOracle,
    audit_lipschitz,
    bound_from_kappa_ball,
    channel_depolarizing,
    counterexample1_exact,
    counterexample1_point,
    counterexample2_exact,
    counterexample2_point,
    discord_levelset_grid,
    discord_robustness_bds,
    is_ppt,
    lipschitz_from_kappa_ball,
    maximally_mixed,
    oracle_by_name,
    robustness_along_ray,
    sample_trace_ball,
    scene_counterexample1,
    werner,
)
from robustlab.config import TOLS, Tolerances, check_real, ray_options
from robustlab.errors import ValidationError

MM = maximally_mixed()
SINGLET = werner(0.0)
PPT = oracle_by_name("ppt")
UP = math.nextafter(1.0, 2.0)  # the float after 1
TINY = 5e-324  # the least positive float
APEX_B = 2.0 / 3.0

# site: (call with the value, the name its message starts with, values at
# the ends of the interval that are accepted, values there that are not)
SITES = {
    "ray tol": (lambda v: robustness_along_ray(SINGLET, MM, PPT, tol=v),
                "tol", [TINY, 1e300], [0.0, -TINY, math.inf]),
    "ray s_max": (lambda v: robustness_along_ray(MM, MM, PPT, s_max=v),
                  "s_max", [TINY, 1e300], [0.0, -TINY, math.inf]),
    "lipschitz_from_kappa_ball": (lambda v: lipschitz_from_kappa_ball(MM, v),
                                  "kappa", [1e-300, 1e300], [0.0, -TINY, math.inf]),
    "bound_from_kappa_ball": (lambda v: bound_from_kappa_ball(MM, v),
                              "kappa", [1e-300, 1e300], [0.0, -TINY, math.inf]),
    "sample_trace_ball": (lambda v: sample_trace_ball(MM, v, 0),
                          "radius", [0, 1e-3], [-TINY, math.inf]),
    "audit_lipschitz": (lambda v: audit_lipschitz(lambda r: 0.0, v, AuditConfig(samples=1)),
                        "L", [0, 1e300], [-TINY, math.inf]),
    "werner": (werner, "werner parameter", [0, 1], [-TINY, UP, math.inf]),
    "channel_depolarizing": (channel_depolarizing, "depolarizing weight",
                             [0, 1], [-TINY, UP, math.inf]),
    "discord_levelset_grid": (lambda v: discord_levelset_grid(v, 3),
                              "level", [0, math.inf], [-TINY, -math.inf]),
    "scene_counterexample1": (scene_counterexample1, "delta",
                              [0.2, math.nextafter(1.0, 0.0)], [0, 1, -TINY, UP]),
    "counterexample1_exact delta": (lambda v: counterexample1_exact(0.5, v), "delta",
                                    [TINY, math.nextafter(1.0, 0.0)], [0, 1, -TINY, UP]),
    "counterexample1_point": (counterexample1_point, "family parameter",
                              [-1, 1], [-UP, UP, math.inf]),
    "counterexample1_exact t": (counterexample1_exact, "family parameter",
                                [-1, 1], [-UP, UP, math.nan]),
    "counterexample2_point a": (lambda v: counterexample2_point("a", v),
                                "family 'a' parameter t", [0, 0.5],
                                [-TINY, math.nextafter(0.5, 1.0)]),
    "counterexample2_exact a": (lambda v: counterexample2_exact("a", v),
                                "family 'a' parameter t", [0, 0.5],
                                [-TINY, math.nextafter(0.5, 1.0)]),
    "counterexample2_point b": (lambda v: counterexample2_point("b", v),
                                "family 'b' parameter t", [0, APEX_B],
                                [-TINY, math.nextafter(APEX_B, 1.0)]),
    "counterexample2_exact b": (lambda v: counterexample2_exact("b", v),
                                "family 'b' parameter t", [0, APEX_B],
                                [-TINY, math.nextafter(APEX_B, 1.0)]),
    "BellDiagonalParams c1": (lambda v: BellDiagonalParams(v, 0, 0), "correlation c1",
                              [-1, 1], [math.inf, -math.inf]),
    "BellDiagonalParams c2": (lambda v: BellDiagonalParams(0, v, 0), "correlation c2",
                              [-1, 1], [math.inf, -math.inf]),
    "BellDiagonalParams c3": (lambda v: BellDiagonalParams(0, 0, v), "correlation c3",
                              [-1, 1], [math.inf, -math.inf]),
    "discord_robustness_bds": (lambda v: discord_robustness_bds((0, v, 0)), "correlation c2",
                               [-1, 1], [math.inf, -math.inf]),
    # unchecked, nan and -1 gave the singlet's ray toward 1/4 the value inf,
    # inf gave 0 and "x" a bare TypeError
    "FreeSetOracle lmi": (lambda v: FreeSetOracle("ppt copy", is_ppt, lmi=(PPT.lmi[0], v)),
                          "lmi tolerance", [0, 1e300], [-TINY, math.inf]),
}

# numeric strings such as "0.5" are not numbers either; "a" and [1] are the
# inputs that reached the ray's tol as ValueError and TypeError
NON_NUMBERS = ["x", "a", "0.5", b"0.5", None, [1], (0.5,), np.array([0.5]), 1j,
               np.complex128(0.5), math.nan]


# at these sites None stands for the default, as the signatures say
NONE_IS_DEFAULT = {"ray tol", "ray s_max"}


@pytest.mark.parametrize("value", NON_NUMBERS, ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_non_number_names_the_parameter(site, value):
    call, name, _, _ = SITES[site]
    if value is None and site in NONE_IS_DEFAULT:
        call(value)
        return
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} must be "):
        call(value)


@pytest.mark.parametrize("site", SITES)
def test_interval_ends_keep_their_answers(site):
    call, name, accepted, rejected = SITES[site]
    for value in accepted:
        call(value)
    for value in rejected:
        with pytest.raises(ValidationError, match=f"^{re.escape(name)} must be "):
            call(value)


def test_check_real_returns_a_float():
    for value in (True, 2, np.float32(0.5), np.int64(3), 0.25):
        got = check_real("x", value)
        assert type(got) is float and got == float(value)


@pytest.mark.parametrize("lo, hi, ends, rule", [
    (-math.inf, math.inf, "()", "finite"),
    (0.0, math.inf, "()", "finite and > 0"),
    (0.0, math.inf, "[)", "finite and >= 0"),
    (0.0, math.inf, "[]", "a number >= 0"),
    (0.0, 1.0, "(]", "in (0, 1]"),
    (-1.0, APEX_B, "[]", "in [-1, 0.6666666666666666]"),
])
def test_message_states_the_interval(lo, hi, ends, rule):
    with pytest.raises(ValidationError, match=re.escape(f"x must be {rule}, got 'y'")):
        check_real("x", "y", lo, hi, ends)


class TestTolerances:
    def test_frozen_record_with_defaults(self):
        with pytest.raises(AttributeError):
            TOLS.ppt = 1.0
        assert TOLS == Tolerances() and hash(TOLS) == hash(Tolerances())
        assert (TOLS.discord_membership, TOLS.unfaithful_margin) == (1e-9, 1e-8)
        assert Tolerances(ppt=1e-8).ppt == 1e-8 and Tolerances(ppt=1e-8) != TOLS
        assert repr(TOLS).startswith("Tolerances(hermiticity=1e-12, trace_one=1e-10, psd=1e-10,")

    def test_variant_by_replace(self):
        # a NamedTuple, not a dataclass: _replace derives a variant
        variant = TOLS._replace(ppt=1e-8)
        assert variant.ppt == 1e-8 and variant._replace(ppt=TOLS.ppt) == TOLS


class TestRayOptions:
    def test_defaults_and_given_values(self):
        assert ray_options(None, None, 4) == (TOLS.ray_bisection, 8.0)
        assert ray_options(1e-3, 3, 6) == (1e-3, 3.0)

    @pytest.mark.parametrize("tol, s_max, name", [
        (0.0, None, "tol"), (math.nan, math.nan, "tol"), (None, math.inf, "s_max"),
        (None, -1.0, "s_max"),
    ])
    def test_tol_is_checked_before_s_max(self, tol, s_max, name):
        with pytest.raises(ValidationError, match=f"^{name} must be finite and > 0"):
            ray_options(tol, s_max, 4)
