"""Command-line surface over the robustness engines.

Every subcommand is a thin adapter: it parses arguments, calls library
functions, and formats their results.  _build_parser declares each one
once: its arguments, its handler and the flags that act only with one value
of another argument.  A handler returns the payload body; main adds the
schema version field "v": 1 and writes it, as CSV when it has "columns",
else as JSON; infinite values serialize as the string "inf".
Exit codes: 0 success, 1 a payload with "passed": false (a failed audit),
2 invalid input (bad JSON, bad shape, Hermiticity/trace violations,
unusable parameters, a flag given where it does not act), 3 positivity
violation, 4 numerical failure (non-monotone membership along a ray on a
set without an LMI, such as zero-discord or bds-axes; or a number too close
to its threshold to decide: an eigenvalue near the support cutoff, or the
margin of a ppt or unfaithful noise state near 0).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from typing import TYPE_CHECKING, Optional

from .errors import (
    ConfigurationError,
    IllConditionedError,
    PositivityError,
    StarConvexityViolationError,
    ValidationError,
)

if TYPE_CHECKING:
    from .bds import BellDiagonalParams
    from .qstates import DensityMatrix

# Each handler imports only the modules it uses, and calls library functions
# through their owning module.  `counterexample`, `levelset`, and on --bds
# input `discord` (both methods) and the `ent-ray` toward maxmixed noise on
# zero-discord never load numpy: they answer from the plain-float rules of
# `bds`.  A --state file holding {"bds": c} is read as the triple c, the
# --bds input, so it gets the same answer (reading the file loads numpy);
# `discord` reads a matrix file's triple back with free_sets.bds_params_of.
# `csv` and `dataclasses` load only where they are used, since
# `dataclasses` imports `inspect`.

SCHEMA_VERSION = 1


# --- serialization helpers ---------------------------------------------------


def _scalar(v):
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
        if "columns" not in payload:
            raise ConfigurationError("this subcommand has no tabular output; use json")
        import csv

        # csv writes a float by its repr, so inf, -inf and nan print as _scalar names them
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(payload["columns"])
        writer.writerows(payload["rows"])
        text = buf.getvalue()
    else:
        text = json.dumps(_jsonify(payload), indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- input parsing -----------------------------------------------------------


def _given(args, name: str) -> dict:
    """{name: value} if the flag was given, else {}: the library's default."""
    return {} if getattr(args, name) is None else {name: getattr(args, name)}


def _parse_bds(text: str) -> BellDiagonalParams:
    from . import bds

    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--bds expects three comma-separated numbers, got {text!r}")
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--bds expects numbers, got {text!r}") from None
    return bds.BellDiagonalParams(*vals)


def _state_arg(args) -> BellDiagonalParams | DensityMatrix:
    """The state of --bds or --state.  A file's {"bds": ...} object is the
    triple it holds, the same input as --bds; any other file is a validated
    matrix."""
    if args.bds is not None:
        return _parse_bds(args.bds)
    if args.state is None:
        raise ValidationError("provide a state via --bds or --state")
    from . import qstates

    with open(args.state) as fh:
        return qstates._parse_state(fh.read())


def _matrix(state: BellDiagonalParams | DensityMatrix) -> DensityMatrix:
    from . import qstates

    return state if isinstance(state, qstates.DensityMatrix) else qstates.bell_diagonal(state)


def _noise_arg(spec: str, dims: tuple[int, ...]) -> DensityMatrix:
    from . import qstates

    if spec == "maxmixed":
        return qstates.maximally_mixed(dims)
    if spec.startswith("state:"):
        with open(spec[len("state:"):]) as fh:
            return qstates.state_from_json(fh.read())
    raise ValidationError(f"--noise must be 'maxmixed' or 'state:<file>', got {spec!r}")


# bounds the work of one call: a longer sweep is almost surely a typo in the step
MAX_SWEEP_POINTS = 10_000


def _parse_sweep(text: str) -> list[float]:
    """start:stop:step, inclusive of start, exclusive of stop (slack 1e-12).

    start, stop and step must be finite, step > 0, and the sweep from 1
    to MAX_SWEEP_POINTS long (ValidationError otherwise)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--sweep expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--sweep expects numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValidationError(f"--sweep needs finite start, stop and step, got {text!r}")
    if step <= 0:
        raise ValidationError(f"sweep step must be positive, got {step!r}")
    vals = []
    while start + len(vals) * step < stop - 1e-12:
        if len(vals) == MAX_SWEEP_POINTS:
            raise ValidationError(
                f"--sweep {text!r} has more than {MAX_SWEEP_POINTS} points"
            )
        vals.append(start + len(vals) * step)
    if not vals:  # a sweep with no points tests nothing
        raise ValidationError(f"--sweep {text!r} has no points; stop must exceed start")
    return vals


# --- subcommand handlers -----------------------------------------------------


def _cmd_discord(args) -> dict:
    from . import bds

    params = _state_arg(args)
    if not isinstance(params, bds.BellDiagonalParams):
        from . import free_sets

        params = free_sets.bds_params_of(params)
        if params is None:
            raise ValidationError(
                "state is not Bell-diagonal; use discord-bounds for general states"
            )
    if args.method == "closed-form":
        return {"value": bds.discord_robustness_bds(params), "method": "closed-form"}
    res = bds.discord_axis_search(params, **_given(args, "grid"))
    return {"value": res.value, "method": res.method, "iterations": res.iterations}


def _cmd_discord_bounds(args) -> dict:
    from . import engines

    lo, hi = engines.discord_robustness_bounds(_matrix(_state_arg(args)))
    return {"lo": lo, "hi": hi}


def _cmd_ent_ray(args) -> dict:
    from . import bds, config

    state = _state_arg(args)
    if (isinstance(state, bds.BellDiagonalParams) and args.noise == "maxmixed"
            and args.free_set == "zero-discord"):
        # membership is the same all along this ray (see bds.has_zero_discord_bds),
        # so the value is exactly 0 or inf
        config.ray_options(args.tol, args.s_max, 4)  # the checks of robustness_along_ray
        free = bds.has_zero_discord_bds(state)
        value, method, iterations, width = (0.0 if free else math.inf), "closed-form", 0, 0.0
        # qstates.state_to_json(qstates.bell_diagonal(state)): the state is real
        witness = config.state_json(
            (2, 2), state.matrix(), [[0.0] * 4 for _ in range(4)]) if free else None
    else:
        from . import engines, free_sets, qstates

        rho = _matrix(state)
        sigma = _noise_arg(args.noise, rho.dims)
        oracle = free_sets.oracle_by_name(args.free_set)
        res = engines.robustness_along_ray(rho, sigma, oracle, s_max=args.s_max, tol=args.tol)
        value, method, iterations, width = res.value, res.method, res.iterations, res.bracket_width
        witness = None if res.free_witness is None else qstates.state_to_json(res.free_witness)
    payload = {"free_set": args.free_set, "value": value, "method": method,
               "iterations": iterations, "bracket_width": width}
    if witness is not None:
        payload["free_witness"] = witness
    return payload


def _cmd_tel_check(args) -> dict:
    from . import free_sets

    rho = _matrix(_state_arg(args))
    return {
        "singlet_fraction": free_sets.singlet_fraction(rho),
        "threshold": 0.5,
        "unfaithful": free_sets.is_unfaithful(rho),
    }


def _cmd_counterexample(args) -> dict:
    from . import geometry2d as g2

    if args.id == 2 and args.branch is None:
        raise ValidationError("--id 2 needs --branch a or b")
    ts = _parse_sweep(args.sweep) if args.sweep else [args.t]
    if ts == [None]:
        raise ValidationError("provide --sweep start:stop:step or --t value")
    if args.id == 1:
        delta = _given(args, "delta")
        scene, solve = g2.scene_counterexample1(**delta), g2.absolute_robustness_2d
        exact = functools.partial(g2.counterexample1_exact, **delta)
        point = g2.counterexample1_point
    else:
        scene, solve = g2.scene_counterexample2(), g2.global_robustness_2d
        exact = functools.partial(g2.counterexample2_exact, args.branch)
        point = functools.partial(g2.counterexample2_point, args.branch)
    return {"columns": ["t", "exact", "numeric"],
            "rows": [(t, exact(t), solve(point(t), scene)) for t in ts]}


def _cmd_levelset(args) -> dict:
    from . import bds

    rows = [
        (c1, c2, c3, value, int(inside))
        for c1, c2, c3, value, inside in bds.discord_levelset_grid(args.r, args.grid)
    ]
    return {"columns": ["c1", "c2", "c3", "value", "inside"], "rows": rows}


def _cmd_audit(args) -> dict:
    import dataclasses

    from . import audit as audit_mod, engines, free_sets

    # an empty batch tests nothing and would read as a failed audit (exit 1)
    if args.samples < 1:
        raise ValidationError(f"--samples must be at least 1, got {args.samples}")
    cfg = audit_mod.AuditConfig(samples=args.samples, seed=args.seed)
    oracle = free_sets.oracle_by_name(args.free_set)
    if args.measure == "ray":
        measure = audit_mod.ray_measure(oracle.star_center, oracle)
    else:
        measure = audit_mod.discord_filtered_measure
    if args.check == "lipschitz":
        L = args.L
        if L is None:
            # the kappa-ball constant bounds the ray toward a free set with a ball
            if args.measure != "ray" or oracle.kappa is None:
                raise ValidationError(f"--measure {args.measure} on free set "
                                      f"{oracle.name!r} has no default constant; pass --L")
            L = engines.lipschitz_from_kappa_ball(oracle.star_center, oracle.kappa).L
        rep = audit_mod.audit_lipschitz(measure, L, cfg)
        worst = None
        if rep.worst_pair is not None:
            regime, _, _, m1, m2, dist = rep.worst_pair
            worst = {"regime": regime, "m1": m1, "m2": m2, "dist": dist}
        fields = {
            "L": rep.L_claimed,
            "pairs_tested": rep.pairs_tested,
            "max_ratio": rep.max_ratio,
            "violations": rep.violations,
            "infinite_skipped": rep.infinite_skipped,
            "worst": worst,
        }
    else:
        if args.check == "faithfulness":
            rep = audit_mod.audit_faithfulness(measure, oracle, cfg)
        elif args.check == "monotonicity":
            rep = audit_mod.audit_monotonicity(
                measure, audit_mod.default_channels(args.seed), oracle, cfg
            )
        else:
            extra = (
                audit_mod.discord_axis_endpoint_pairs()
                if args.measure == "discord-filtered"
                else ()
            )
            rep = audit_mod.audit_convexity(measure, cfg, extra_pairs=extra)
        # every report field in declaration order, minus the states of a violation
        fields = {
            f.name: getattr(rep, f.name)
            for f in dataclasses.fields(rep)
            if f.name != "first_violation"
        }
    return {"check": args.check, "measure": args.measure, "free_set": oracle.name,
            **fields, "passed": rep.passed}


# --- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # each subparser sets run, its handler, and only_with: flag -> (argument, value)
    parser = argparse.ArgumentParser(
        prog="robustlab",
        description="Robustness measures, continuity audits and counterexamples.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--out", default=None, help="write output to this file")

    state_in = argparse.ArgumentParser(add_help=False)
    one_state = state_in.add_mutually_exclusive_group()
    one_state.add_argument("--bds", default=None, help="c1,c2,c3 correlations")
    one_state.add_argument("--state", default=None, help="state JSON file")

    p = sub.add_parser("discord", parents=[common, state_in],
                       help="discord robustness of a Bell-diagonal state")
    p.add_argument("--method", choices=("closed-form", "axis-opt"),
                   default="closed-form")
    p.add_argument("--grid", type=int, help="axis grid of --method axis-opt (default 64)")
    p.set_defaults(run=_cmd_discord, only_with={"grid": ("method", "axis-opt")})

    sub.add_parser("discord-bounds", parents=[common, state_in],
                   help="two-sided discord robustness bounds for any state",
                   ).set_defaults(run=_cmd_discord_bounds)

    p = sub.add_parser("ent-ray", parents=[common, state_in],
                       help="robustness along a fixed noise ray")
    p.add_argument("--free-set", default="ppt")
    p.add_argument("--noise", default="maxmixed",
                   help="maxmixed or state:<file>")
    p.add_argument("--s-max", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(run=_cmd_ent_ray)

    sub.add_parser("tel-check", parents=[common, state_in],
                   help="maximal singlet fraction and faithfulness flag",
                   ).set_defaults(run=_cmd_tel_check)

    p = sub.add_parser("counterexample", parents=[common],
                       help="exact vs numeric values along the reference families")
    p.add_argument("--id", type=int, choices=(1, 2), required=True)
    p.add_argument("--delta", type=float, help="scene parameter of --id 1 (default 0.2)")
    p.add_argument("--branch", choices=("a", "b"), help="family of --id 2, required there")
    points = p.add_mutually_exclusive_group()
    points.add_argument("--sweep", default=None,
                        help=f"start:stop:step, stop exclusive, at most {MAX_SWEEP_POINTS} points")
    points.add_argument("--t", type=float, default=None)
    p.set_defaults(run=_cmd_counterexample,
                   only_with={"delta": ("id", 1), "branch": ("id", 2)})

    p = sub.add_parser("levelset", parents=[common],
                       help="discord robustness sublevel set on the tetrahedron")
    p.add_argument("--r", type=float, default=0.3)
    p.add_argument("--grid", type=int, default=41)
    p.set_defaults(run=_cmd_levelset)

    p = sub.add_parser("audit", parents=[common],
                       help="statistical continuity and structure audits")
    p.add_argument("--check", required=True,
                   choices=("lipschitz", "faithfulness", "monotonicity", "convexity"))
    p.add_argument("--measure", choices=("ray", "discord-filtered"), default="ray",
                   help="ray: robustness along the noise ray toward the free set's star center")
    p.add_argument("--free-set", default="ppt")
    p.add_argument("--L", type=float, help="for --check lipschitz (default: the ray's kappa-ball L)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_audit, only_with={"L": ("check", "lipschitz")})

    return parser


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
        # set on the subparsers only: argparse merges their defaults differently by release
        for flag, (arg, value) in getattr(args, "only_with", {}).items():
            if getattr(args, flag) is not None and getattr(args, arg) != value:
                raise ValidationError(f"--{flag} acts only with --{arg} {value}")
        payload = {"v": SCHEMA_VERSION, **args.run(args)}
        _emit(payload, args.format or ("csv" if "columns" in payload else "json"), args.out)
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
    return 0 if payload.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
