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
    audit_lipschitz,
    bds_params_of,
    bound_from_kappa_ball,
    channel_depolarizing,
    counterexample1_exact,
    counterexample1_point,
    counterexample2_exact,
    counterexample2_point,
    discord_levelset_grid,
    discord_robustness_bds,
    lipschitz_from_kappa_ball,
    maximally_mixed,
    oracle_by_name,
    robustness_along_ray,
    sample_trace_ball,
    scene_counterexample1,
    werner,
)
from robustlab.config import check_real
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
    "AuditConfig": (lambda v: AuditConfig(tolerance=v),
                    "tolerance", [0, 1e300], [-TINY, math.inf]),
    "bds_params_of": (lambda v: bds_params_of(MM, tol=v),
                      "tol", [0, 1e300], [-TINY, math.inf]),
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
}

# numeric strings such as "0.5" are not numbers either; "a" and [1] are the
# inputs that reached the ray's tol as ValueError and TypeError
NON_NUMBERS = ["x", "a", "0.5", b"0.5", None, [1], (0.5,), np.array([0.5]), 1j,
               np.complex128(0.5), math.nan]


# at these sites None stands for the default, as the signatures say
NONE_IS_DEFAULT = {"ray tol", "ray s_max", "AuditConfig", "bds_params_of"}


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
