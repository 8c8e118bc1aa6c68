"""Run one robustlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bds-discord --seed 1 --seconds 20 --trace 0

Workloads: bds-discord, ray-audit, planar, cli-mix (see workloads.py);
BENCHMARK.json at the repository root lists them and the metrics' units.
With ``--trace 0`` the run sets the workload up nine times in fresh
processes (``setup_s`` is their median) and measures the last one for
``--seconds``; it prints the end-to-end metrics.  With ``--trace 1`` it
runs a fixed set of rounds once plain and once traced, and prints the
per-layer metrics.  The last line of output is one JSON object; the lines
before it repeat the metrics for people.  The exit status is 0 only when
every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"  # workloads, metrics and their units
SETUPS = 9  # set-ups per measured run; setup_s is their median
TIME_LIMIT_S = 170.0  # the whole run, set-ups included


class WorkerError(RuntimeError):
    pass


def _worker(args, mode: str, deadline: float) -> dict:
    """Start one worker process; return its result plus ``setup_s`` and
    ``setup_scaled_s``, the set-up time scaled to the reference speed by
    probes taken just before it and, when the worker stops there, after it."""
    before = speed.speed_now()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        after = speed.speed_now() if mode == "setup" else before
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"{mode} worker for {args.workload} exited with {code}")
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = setup_s
    result["setup_scaled_s"] = setup_s * (before + after) / 2
    return result


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description="Run one robustlab benchmark workload.")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "robustlab" / "__init__.py").is_file():
        print(f"perfbench: no robustlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            res = _worker(args, "trace", deadline)
            values, wanted = res["layer"], spec["per_layer"]
        else:
            setups = [_worker(args, "setup", deadline) for _ in range(SETUPS - 1)]
            res = _worker(args, "measure", deadline)
            setups.append(res)
            values = {**res, "setup_s": statistics.median(s["setup_scaled_s"] for s in setups)}
            wanted = spec["end_to_end"]
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}

    attempted, failed = res["attempted"], res["failed"]
    for problem in res["failures"]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'error_rate':40s} {failed / max(attempted, 1):14.6g} share "
          f"({failed} of {attempted} items failed)")
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": _git_commit(), **res["env"]}
    for key in ("items", "rounds", "round_items_min", "tail_percentile", "busy_s", "probes",
                "speed"):
        if key in res:
            info[key] = res[key]
    if not args.trace:
        raw_setups = [s["setup_s"] for s in setups]
        info["raw"] = {**res["raw"], "setup_s": statistics.median(raw_setups)}
        info["setup_samples_s"] = raw_setups
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
