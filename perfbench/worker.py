"""One benchmark process: set up a workload, then measure or trace it.

run.py starts it and counts set-up time from process start until the
line READY.  In mode ``setup`` the process then exits; in ``measure`` and
``trace`` it goes on and prints one JSON line with its results.

The process is single-threaded: BLAS and OpenMP pools are pinned to one
thread and robustlab's audit thread pool (ROBUSTLAB_THREADS) is off.
"""

import os
import sys
from pathlib import Path

os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
os.environ.pop("ROBUSTLAB_THREADS", None)
ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402

OUT = ROOT / "perfbench" / "out"


def env_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ROBUSTLAB_THREADS")},
    }


def _run_rounds(wl, rounds, rec) -> float:
    """Run the given rounds; return the time the program was busy (wall
    time less the reference checks and speed probes made meanwhile)."""
    start, check_s = perf_counter(), rec.check_s
    probe_s = wl.speed.spent if wl.speed is not None else 0.0
    for r in rounds:
        wl.run_round(r, rec)
    if wl.speed is not None:
        probe_s = wl.speed.spent - probe_s
    return perf_counter() - start - (rec.check_s - check_s) - probe_s


def measure(wl, seconds: float) -> dict:
    """Run whole rounds until ``seconds`` have passed.

    Every time is scaled to the reference speed of :mod:`speed` by the
    probes taken between items; the raw figures go to the run's info.
    """
    from speed import SpeedLog
    from stats import hd_percentile
    from workloads import Record

    rec = Record()
    wl.speed = speed = SpeedLog(wl.probe)
    speed.sample()
    busy, rounds = 0.0, []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        first = len(rec.latencies)
        busy += _run_rounds(wl, [len(rounds)], rec)
        rounds.append(len(rec.latencies) - first)
    speed.sample()
    wl.speed = None
    lat = rec.latencies
    scaled = [x * speed.factor(t) for x, t in zip(lat, rec.ends)]
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.rss_from_children
                               else resource.RUSAGE_SELF)
    return {
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "rounds": len(rounds),
        "items": len(lat),
        "round_items_min": min(rounds),
        "tail_percentile": wl.tail_q,
        "busy_s": busy,
        "items_per_s": len(lat) / (busy * speed.mean_factor()),
        "item_p50_ms": 1e3 * hd_percentile(scaled, 50.0),
        "item_tail_ms": 1e3 * hd_percentile(scaled, wl.tail_q),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "raw": {
            "items_per_s": len(lat) / busy,
            "item_p50_ms": 1e3 * hd_percentile(lat, 50.0),
            "item_tail_ms": 1e3 * hd_percentile(lat, wl.tail_q),
        },
        "probes": len(speed.took),
        "speed": speed.speed(),
    }


def trace(wl) -> dict:
    """Run the fixed rounds plain, then traced.  Both times are scaled to
    the reference speed by probes taken just before and after each, so the
    tracing overhead is not the machine's drift between the two."""
    from spans import Tracer, install_layers, layer_metrics
    from speed import speed_now
    from workloads import Record

    rounds = range(wl.trace_rounds)
    _run_rounds(wl, rounds, Record())  # finish lazy imports of this path
    plain = Record()
    before = speed_now()
    untraced_s = _run_rounds(wl, rounds, plain) * (before + speed_now()) / 2
    extras = wl.layer_extras(plain)

    tracer = Tracer()
    install_layers(tracer)
    try:
        wl.build()
        tracer.reset()
        wl.tracer, wl.items_done = tracer, 0
        traced = Record()
        before = speed_now()
        traced_s = _run_rounds(wl, rounds, traced) * (before + speed_now()) / 2
    finally:
        wl.tracer = None
        tracer.restore()
    items = len(traced.latencies)
    layer = layer_metrics(tracer, items)
    layer.update(extras)
    layer["trace.items"] = items
    layer["trace.overhead"] = traced_s / untraced_s - 1.0
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"spans-{wl.name}-{wl.seed}.json", workload=wl.name, seed=wl.seed)
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "failures": plain.failures + traced.failures,
        "layer": layer,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)

    import robustlab
    from workloads import WORKLOADS

    if not Path(robustlab.__file__).resolve().is_relative_to(Path(SRC).resolve()):
        print(f"robustlab imported from {robustlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, OUT)
    wl.in_process = args.mode == "trace"
    wl.build()
    wl.warm_up()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    result = measure(wl, args.seconds) if args.mode == "measure" else trace(wl)
    result["env"] = env_info()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
