"""Command-line surface over the robustness engines.

Every subcommand is a thin adapter: it parses arguments, calls library
functions, and formats their results.  JSON payloads carry a schema
version field "v": 1; infinite values serialize as the string "inf".
Exit codes: 0 success, 1 audit failure, 2 invalid input (bad JSON, bad
shape, Hermiticity/trace violations, unusable parameters), 3 positivity
violation, 4 numerical failure (non-monotone membership along a ray, or
an eigenvalue too close to the support cutoff to decide the rank).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional

import numpy as np

from . import audit as audit_mod
from .config import TOLS
from .engines import (
    discord_levelset_grid,
    discord_robustness_axis_opt,
    discord_robustness_bds,
    discord_robustness_bounds,
    lipschitz_from_kappa_ball,
    robustness_along_ray,
)
from .errors import (
    ConfigurationError,
    IllConditionedError,
    PositivityError,
    StarConvexityViolationError,
    ValidationError,
)
from .free_sets import (
    bds_params_of,
    is_unfaithful,
    oracle_by_name,
    singlet_fraction,
)
from .geometry2d import (
    absolute_robustness_2d,
    counterexample1_exact,
    counterexample1_point,
    counterexample2_exact,
    counterexample2_point,
    global_robustness_2d,
    scene_counterexample1,
    scene_counterexample2,
)
from .qstates import (
    BellDiagonalParams,
    DensityMatrix,
    bell_diagonal,
    maximally_mixed,
    state_from_json,
    state_to_json,
)

SCHEMA_VERSION = 1


# --- serialization helpers ---------------------------------------------------


def _scalar(v):
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
    return v


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return _scalar(obj)


def _emit(payload, fmt: str, out: Optional[str]) -> None:
    if fmt == "csv":
        if not (isinstance(payload, dict) and "columns" in payload):
            raise ConfigurationError("this subcommand has no tabular output; use json")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(payload["columns"])
        for row in payload["rows"]:
            writer.writerow([_scalar(v) for v in row])
        text = buf.getvalue()
    else:
        text = json.dumps(_jsonify(payload), indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- input parsing -----------------------------------------------------------


def _parse_bds(text: str) -> BellDiagonalParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--bds expects three comma-separated numbers, got {text!r}")
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--bds expects numbers, got {text!r}") from None
    return BellDiagonalParams(*vals)


def _load_state(path: str) -> DensityMatrix:
    with open(path) as fh:
        return state_from_json(fh.read())


def _state_arg(args) -> DensityMatrix:
    if getattr(args, "bds", None) is not None:
        return bell_diagonal(_parse_bds(args.bds))
    if getattr(args, "state", None) is not None:
        return _load_state(args.state)
    raise ValidationError("provide a state via --bds or --state")


def _noise_arg(spec: str) -> DensityMatrix:
    if spec == "maxmixed":
        return maximally_mixed()
    if spec.startswith("state:"):
        return _load_state(spec[len("state:"):])
    raise ValidationError(f"--noise must be 'maxmixed' or 'state:<file>', got {spec!r}")


def _parse_sweep(text: str) -> list[float]:
    """start:stop:step, inclusive of start, exclusive of stop (slack 1e-12)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--sweep expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--sweep expects numbers, got {text!r}") from None
    if step <= 0:
        raise ValidationError(f"sweep step must be positive, got {step!r}")
    vals = []
    k = 0
    while start + k * step < stop - 1e-12:
        vals.append(start + k * step)
        k += 1
    return vals


# --- subcommand handlers -----------------------------------------------------


def _cmd_discord(args) -> tuple[int, dict]:
    if args.bds is not None:
        params = _parse_bds(args.bds)
    else:
        rho = _state_arg(args)
        params = bds_params_of(rho)
        if params is None:
            raise ValidationError(
                "state is not Bell-diagonal; use discord-bounds for general states"
            )
    if args.method == "closed-form":
        payload = {
            "v": SCHEMA_VERSION,
            "value": discord_robustness_bds(params),
            "method": "closed-form",
        }
    else:
        res = discord_robustness_axis_opt(params, grid=args.grid)
        payload = {
            "v": SCHEMA_VERSION,
            "value": res.value,
            "method": res.method,
            "iterations": res.iterations,
        }
    return 0, payload


def _cmd_discord_bounds(args) -> tuple[int, dict]:
    rho = _state_arg(args)
    lo, hi = discord_robustness_bounds(rho)
    return 0, {"v": SCHEMA_VERSION, "lo": lo, "hi": hi}


def _cmd_ent_ray(args) -> tuple[int, dict]:
    rho = _state_arg(args)
    sigma = _noise_arg(args.noise)
    oracle = oracle_by_name(args.free_set)
    res = robustness_along_ray(rho, sigma, oracle, s_max=args.s_max, tol=args.tol)
    payload = {
        "v": SCHEMA_VERSION,
        "free_set": oracle.name,
        "value": res.value,
        "method": res.method,
        "iterations": res.iterations,
        "bracket_width": res.bracket_width,
    }
    if res.free_witness is not None:
        payload["free_witness"] = state_to_json(res.free_witness)
    return 0, payload


def _cmd_tel_check(args) -> tuple[int, dict]:
    rho = _state_arg(args)
    return 0, {
        "v": SCHEMA_VERSION,
        "singlet_fraction": singlet_fraction(rho),
        "threshold": 0.5,
        "unfaithful": is_unfaithful(rho),
    }


def _ce_rows(args) -> tuple[list[str], list[tuple]]:
    ts = _parse_sweep(args.sweep) if args.sweep else [args.t]
    if ts == [None]:
        raise ValidationError("provide --sweep start:stop:step or --t value")
    rows = []
    if args.id == 1:
        scene = scene_counterexample1(args.delta)
        for t in ts:
            rows.append(
                (
                    t,
                    counterexample1_exact(t, args.delta),
                    absolute_robustness_2d(
                        counterexample1_point(t), scene, resolution=args.resolution
                    ),
                )
            )
    else:
        scene = scene_counterexample2()
        for t in ts:
            rows.append(
                (
                    t,
                    counterexample2_exact(args.branch, t),
                    global_robustness_2d(
                        counterexample2_point(args.branch, t),
                        scene,
                        resolution=args.resolution,
                    ),
                )
            )
    return ["t", "exact", "numeric"], rows


def _cmd_counterexample(args) -> tuple[int, dict]:
    if args.id == 2 and args.branch is None:
        raise ValidationError("--id 2 needs --branch a or b")
    columns, rows = _ce_rows(args)
    return 0, {"v": SCHEMA_VERSION, "columns": columns, "rows": rows}


def _cmd_levelset(args) -> tuple[int, dict]:
    data = discord_levelset_grid(args.r, args.grid)
    rows = [
        (row[0], row[1], row[2], row[3], int(row[4])) for row in data
    ]
    return 0, {
        "v": SCHEMA_VERSION,
        "columns": ["c1", "c2", "c3", "value", "inside"],
        "rows": rows,
    }


def _audit_measure(name: str):
    if name == "ppt-ray":
        return audit_mod.ray_measure(maximally_mixed(), oracle_by_name("ppt"))
    if name == "discord-filtered":
        return audit_mod.discord_filtered_measure
    raise ValidationError(
        f"--measure must be 'ppt-ray' or 'discord-filtered', got {name!r}"
    )


def _cmd_audit(args) -> tuple[int, dict]:
    # an empty batch tests nothing and would read as a failed audit (exit 1)
    if args.samples < 1:
        raise ValidationError(f"--samples must be at least 1, got {args.samples}")
    cfg = audit_mod.AuditConfig(
        samples=args.samples, seed=args.seed, tolerance=args.tol
    )
    measure = _audit_measure(args.measure)
    oracle = oracle_by_name(args.free_set)
    if args.check == "lipschitz":
        L = args.L
        if L is None:
            if oracle.star_center is None or oracle.kappa is None:
                raise ValidationError(
                    f"free set {oracle.name!r} carries no ball data; pass --L"
                )
            L = lipschitz_from_kappa_ball(oracle.star_center, oracle.kappa).L
        rep = audit_mod.audit_lipschitz(measure, L, cfg)
        worst = None
        if rep.worst_pair is not None:
            regime, _, _, m1, m2, dist = rep.worst_pair
            worst = {"regime": regime, "m1": m1, "m2": m2, "dist": dist}
        payload = {
            "check": "lipschitz",
            "L": rep.L_claimed,
            "pairs_tested": rep.pairs_tested,
            "max_ratio": rep.max_ratio,
            "violations": rep.violations,
            "infinite_skipped": rep.infinite_skipped,
            "worst": worst,
            "passed": rep.passed,
        }
        passed = rep.passed
    elif args.check == "faithfulness":
        rep = audit_mod.audit_faithfulness(measure, oracle, cfg)
        payload = {
            "check": "faithfulness",
            "free_checked": rep.free_checked,
            "nonfree_checked": rep.nonfree_checked,
            "free_nonzero": rep.free_nonzero,
            "nonfree_zero": rep.nonfree_zero,
            "worst_free_value": rep.worst_free_value,
            "passed": rep.passed,
        }
        passed = rep.passed
    elif args.check == "monotonicity":
        rep = audit_mod.audit_monotonicity(
            measure, audit_mod.default_channels(args.seed), oracle, cfg
        )
        payload = {
            "check": "monotonicity",
            "channels": list(rep.channels),
            "checked": rep.checked,
            "violations": rep.violations,
            "per_channel": rep.per_channel,
            "worst_increase": rep.worst_increase,
            "infinite_skipped": rep.infinite_skipped,
            "passed": rep.passed,
        }
        passed = rep.passed
    else:
        extra = (
            audit_mod.discord_axis_endpoint_pairs()
            if args.measure == "discord-filtered"
            else ()
        )
        rep = audit_mod.audit_convexity(measure, cfg, extra_pairs=extra)
        payload = {
            "check": "convexity",
            "checked": rep.checked,
            "violations": rep.violations,
            "worst_gap": rep.worst_gap,
            "passed": rep.passed,
        }
        passed = rep.passed
    payload = {"v": SCHEMA_VERSION, **payload}
    return (0 if passed else 1), payload


# --- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustlab",
        description="Robustness measures, continuity audits and counterexamples.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--out", default=None, help="write output to this file")

    state_in = argparse.ArgumentParser(add_help=False)
    state_in.add_argument("--bds", default=None, help="c1,c2,c3 correlations")
    state_in.add_argument("--state", default=None, help="state JSON file")

    p = sub.add_parser("discord", parents=[common, state_in],
                       help="discord robustness of a Bell-diagonal state")
    p.add_argument("--method", choices=("closed-form", "axis-opt"),
                   default="closed-form")
    p.add_argument("--grid", type=int, default=64)

    sub.add_parser("discord-bounds", parents=[common, state_in],
                   help="two-sided discord robustness bounds for any state")

    p = sub.add_parser("ent-ray", parents=[common, state_in],
                       help="robustness along a fixed noise ray")
    p.add_argument("--free-set", default="ppt")
    p.add_argument("--noise", default="maxmixed",
                   help="maxmixed or state:<file>")
    p.add_argument("--s-max", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)

    sub.add_parser("tel-check", parents=[common, state_in],
                   help="maximal singlet fraction and faithfulness flag")

    p = sub.add_parser("counterexample", parents=[common],
                       help="exact vs numeric values along the reference families")
    p.add_argument("--id", type=int, choices=(1, 2), required=True)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--branch", choices=("a", "b"), default=None)
    p.add_argument("--sweep", default=None, help="start:stop:step")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--resolution", type=int, default=64)

    p = sub.add_parser("levelset", parents=[common],
                       help="discord robustness sublevel set on the tetrahedron")
    p.add_argument("--r", type=float, default=0.3)
    p.add_argument("--grid", type=int, default=41)

    p = sub.add_parser("audit", parents=[common],
                       help="statistical continuity and structure audits")
    p.add_argument("--check", required=True,
                   choices=("lipschitz", "faithfulness", "monotonicity", "convexity"))
    p.add_argument("--measure", default="ppt-ray")
    p.add_argument("--free-set", default="ppt")
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)

    return parser


_HANDLERS = {
    "discord": _cmd_discord,
    "discord-bounds": _cmd_discord_bounds,
    "ent-ray": _cmd_ent_ray,
    "tel-check": _cmd_tel_check,
    "counterexample": _cmd_counterexample,
    "levelset": _cmd_levelset,
    "audit": _cmd_audit,
}

# tabular subcommands default to csv, scalar ones to json
_DEFAULT_FORMAT = {"counterexample": "csv", "levelset": "csv"}


def _preprocess(argv: list[str]) -> list[str]:
    """Fold flag values onto their flag with '=' so sweeps and correlation
    triples starting with '-' (e.g. --sweep -1:1:0.01) survive argparse."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--sweep", "--bds"):
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_preprocess(list(argv)))
    try:
        code, payload = _HANDLERS[args.cmd](args)
        fmt = args.format or _DEFAULT_FORMAT.get(args.cmd, "json")
        _emit(payload, fmt, args.out)
    except PositivityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StarConvexityViolationError, IllConditionedError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
