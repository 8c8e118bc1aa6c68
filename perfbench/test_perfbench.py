"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

They start the benchmark from the repository root, each run in its own
process, and take two to three minutes.
Scratch copies go to perfbench/out/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import Tracer, layer_metrics, self_times
from speed import SpeedLog
from stats import hd_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, root: Path = ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), *map(str, args)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def _result(lines):
    return json.loads(lines[-1])


def _copy_bench(dest: Path, with_sources: bool) -> Path:
    shutil.rmtree(dest, ignore_errors=True)
    (dest / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for f in HERE.glob("*.py"):
        if not f.name.startswith("test_"):  # pytest would collect the copy
            shutil.copy(f, dest / "perfbench")
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    code, lines, err = _run("--workload", workload, "--seed", 3, "--seconds", 1, "--trace", 0)
    assert code == 0, err
    res = _result(lines)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert any(line.startswith("error_rate") for line in lines)
    info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
    # the tail percentile leaves at least ten items of every round beyond it
    assert info["round_items_min"] * (100.0 - info["tail_percentile"]) >= 10.0 * 100.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    runs = []
    for _ in range(2):
        code, lines, err = _run("--workload", workload, "--seed", 5, "--seconds", 1, "--trace", 1)
        assert code == 0, err
        runs.append(_result(lines))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in runs:
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    counts = [{k: v["value"] for k, v in res["metrics"].items()
               if v["unit"] in ("count", "count/item", "share") and k != "trace.overhead"}
              for res in runs]
    assert counts[0] == counts[1]
    assert counts[0]["trace.items"] > 0


def test_wrong_reference_trips_error_rate_and_exit_status():
    root = _copy_bench(HERE / "out" / "selftest-wrong-reference", with_sources=True)
    ref = root / "perfbench" / "reference.py"
    text = ref.read_text()
    assert "AXIS_OPT_TOL = 1e-6" in text
    ref.write_text(text.replace("AXIS_OPT_TOL = 1e-6", "AXIS_OPT_TOL = -1.0"))
    code, lines, _ = _run("--workload", "bds-discord", "--seed", 3, "--seconds", 1,
                          "--trace", 0, root=root)
    res = _result(lines)
    assert code != 0
    assert not res["correct"] and res["failed"] == res["attempted"] > 0
    rate = next(line for line in lines if line.startswith("error_rate")).split()[1]
    assert float(rate) == 1.0


def test_fails_without_the_program_sources():
    root = _copy_bench(HERE / "out" / "selftest-bench-only", with_sources=False)
    code, lines, _ = _run("--workload", "planar", "--seed", 1, "--seconds", 1, "--trace", 0,
                          root=root)
    assert code != 0
    assert not lines


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["engines.ray", 0.0, 10.0, -1, 0],
        ["free_sets.member", 1.0, 3.0, 0, 0],
        ["free_sets.member", 2.0, 5.0, 0, 0],  # overlaps its sibling
        ["operator_core.eigensolve", 2.5, 3.0, 2, 0],
        ["qstates.DensityMatrix", 8.0, 12.0, 0, 0],  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 2.0, 2.0, 2.5, 0.5, 4.0])

    tracer = Tracer()
    tracer.spans.extend(spans)
    m = layer_metrics(tracer, items=2)
    assert m["engines.self_s"] == pytest.approx(2.0)
    assert m["free_sets.self_s"] == pytest.approx(2.25)
    assert m["operator_core.self_s"] == pytest.approx(0.25)
    assert m["operator_core.eigensolves"] == 0.5
    assert m["free_sets.member_calls"] == 1.0
    assert m["engines.ray.calls"] == 0.5


def test_tracer_records_nesting_and_restores_what_it_wrapped():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Owner.inner(x) * 2

    original = Owner.inner
    tracer = Tracer()
    tracer.patch(Owner, "inner", "engines.inner")
    tracer.patch(Owner, "outer", "audit.outer")
    assert tracer.run_item(7, Owner.outer, 1) == 4
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("bench.item", -1, 7), ("audit.outer", 0, 7), ("engines.inner", 1, 7)]
    tracer.restore()
    assert Owner.inner is original


def test_speed_log_scales_each_time_by_the_nearest_probes():
    log = SpeedLog()
    log.ref_s = 1.0
    log.at = [float(t) for t in range(20)]
    log.took = [1.0] * 10 + [2.0] * 10  # the machine halves its speed at t = 9.5
    assert log.factor(2.0) == 1.0
    assert log.factor(9.4) == 1.0
    assert log.factor(9.6) == 0.5
    assert log.factor(100.0) == 0.5
    # each gap between probes weighs with the scale at its end
    assert log.mean_factor() == pytest.approx((9 * 1.0 + 10 * 0.5) / 19)
    assert log.speed() == pytest.approx(2.0 / 3.0)


def test_harrell_davis_percentile():
    xs = [float(x) for x in range(101)]
    assert hd_percentile(xs, 50.0) == pytest.approx(50.0)
    assert hd_percentile(xs, 90.0) == pytest.approx(90.0, abs=0.5)
    # two kinds of items: the estimate moves smoothly across the gap
    # instead of jumping from one kind to the other
    low, high = [1.0] * 33, [2.0] * 12
    assert 1.0 < hd_percentile(low + high, 75.0) < 2.0
