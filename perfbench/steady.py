"""Steadiness check: run workloads over several seeds and report, per
end-to-end metric, the median, the quartiles and the quartile spread as a
share of the median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workloads planar cli-mix] [--label base]

Runs are sequential; seeds are 1..runs.  The summary is printed and
written to perfbench/out/steady-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Quartile spreads of the end-to-end metrics.")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--label", default="latest")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        run_s = []
        for seed in range(1, args.runs + 1):
            start = perf_counter()
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                                  cwd=ROOT, capture_output=True, text=True)
            run_s.append(perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {"run_s": run_s}
        print(f"{workload:12s} wall time per run: median {statistics.median(run_s):.1f} s, "
              f"max {max(run_s):.1f} s", flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = quartile_spread(vals)
            steady = name == "setup_s" or spread < bounds[name] / 3.0
            ok = ok and steady
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "bound": bounds[name], "values": vals}
            print(f"{workload:12s} {name:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.4f}  bound {bounds[name]:.2f}"
                  f"{'' if steady else '  <-- not below a third of the bound'}", flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.label}.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
