"""Robustness measures of low-dimensional quantum states: engines for
absolute and global robustness against configurable free sets, empirical
continuity audits, and the planar constructions showing where continuity
fails.

The public names below are loaded on first use (PEP 562), so importing
the package costs nothing and a caller pays only for the submodules it
touches: the planar engine and the Bell-diagonal closed forms, for two,
run without numpy.
"""

from importlib import import_module

_EXPORTS = {
    "config": ("TOLS", "Tolerances"),
    "errors": (
        "ConfigurationError",
        "IllConditionedError",
        "PositivityError",
        "RayRangeError",
        "StarConvexityViolationError",
        "ValidationError",
    ),
    "bds": (
        "BellDiagonalParams",
        "discord_levelset_grid",
        "discord_robustness_bds",
    ),
    "qstates": (
        "BlochTwoQubit",
        "DensityMatrix",
        "bell_diagonal",
        "bell_states",
        "bloch_compose",
        "bloch_decompose",
        "maximally_mixed",
        "random_bell_diagonal",
        "random_density",
        "random_unitary",
        "state_from_json",
        "state_inversion",
        "state_to_json",
        "trace_distance",
        "werner",
    ),
    "free_sets": (
        "FreeSetOracle",
        "StarConvexityReport",
        "bds_params_of",
        "discord_defect",
        "gurvits_ball_contains",
        "has_zero_discord",
        "is_ppt",
        "is_unfaithful",
        "oracle_by_name",
        "sample_trace_ball",
        "separable_ball_radius",
        "singlet_fraction",
        "star_convexity_probe",
        "teleportation_ball_radius",
    ),
    "engines": (
        "LipschitzConstant",
        "RobustnessResult",
        "bound_from_kappa_ball",
        "discord_filtered_measure",
        "discord_robustness_axis_opt",
        "discord_robustness_bounds",
        "lipschitz_from_kappa_ball",
        "lipschitz_full_rank",
        "lipschitz_separable",
        "lipschitz_teleport",
        "min_scaling_robustness",
        "robustness_along_ray",
        "teleport_robustness_bound",
    ),
    "geometry2d": (
        "PlanarFreeSet",
        "PlanarScene",
        "absolute_robustness_2d",
        "counterexample1_exact",
        "counterexample1_point",
        "counterexample2_exact",
        "counterexample2_point",
        "global_robustness_2d",
        "planar_star_probe",
        "scene_counterexample1",
        "scene_counterexample2",
    ),
    "audit": (
        "AuditConfig",
        "ConvexityReport",
        "FaithfulnessReport",
        "LipschitzReport",
        "MonotonicityReport",
        "audit_convexity",
        "audit_faithfulness",
        "audit_lipschitz",
        "audit_monotonicity",
        "channel_depolarizing",
        "channel_local_unitary",
        "channel_measure_prepare_b",
        "default_channels",
        "discord_axis_endpoint_pairs",
        "lipschitz_pairs",
        "ray_measure",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
