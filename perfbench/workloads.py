"""The benchmark's workloads.

Each workload makes its inputs from the seed, runs closed-loop with one
item in flight, and checks every output against :mod:`reference`.  Work
is grouped in rounds of fixed composition; a measured run ends on a round
boundary, so every run sees the same mix of inputs.

* ``bds-discord``: one item is ``discord_robustness_axis_opt(c, grid=16)``
  on a random Bell-diagonal triple (the acceptance criterion 1 setting).
  Only engines, operator_core and qstates work.
* ``ray-audit``: one item is one noise-ray solve made by a measure that
  ``audit.ray_measure`` builds, inside the four audits of a round.  Free-set
  membership calls and the ray bisection do most of the work.
* ``planar``: one item is one planar robustness solve on the two
  counterexample scenes.  Only geometry2d runs; finite and infinite
  answers are mixed.
* ``cli-mix``: one item is one ``robustlab`` command run as a subprocess,
  so interpreter start, imports and output formatting are paid per item.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import reference as ref
from robustlab import audit, cli, engines, free_sets, geometry2d, qstates

ROOT = Path(__file__).resolve().parent.parent
CLI_SUBCOMMANDS = (
    "discord", "discord-bounds", "ent-ray", "tel-check", "counterexample", "levelset", "audit",
)


class Record:
    """Outcomes of the items of one phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.ends: list[float] = []  # when each item ended, perf_counter seconds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_s = 0.0  # time spent on reference checks, not on the program
        self.by_label: dict[str, list[float]] = {}

    def add(self, timing: tuple[float, float], problem: str | None,
            label: str | None = None) -> None:
        """Record an item from its ``(end, latency)`` timing."""
        end, latency = timing
        self.latencies.append(latency)
        self.ends.append(end)
        if label is not None:
            self.by_label.setdefault(label, []).append(latency)
        self.attempted += 1
        if problem is not None:
            self.fail(problem, attempted=False)

    def fail(self, problem: str, attempted: bool = True) -> None:
        self.attempted += attempted
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(problem)


class Workload:
    name = ""
    tail_q = 90.0  # the highest of 50, 75, 90, 95, 99 with >= 10 of a round's items beyond it
    trace_rounds = 1  # rounds of a traced run (fixed, so counts repeat exactly)
    rss_from_children = False
    in_process = False  # cli-mix: call cli.main in this process (traced runs)
    probe = "in-process"  # the speed probe (see speed.py)

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = None
        self.speed = None  # a speed.SpeedLog while measuring
        self.items_done = 0

    def build(self) -> None:
        """Make the oracles, measures and scenes (again after tracing starts)."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int, rec: Record) -> None:
        raise NotImplementedError

    def layer_extras(self, rec: Record) -> dict[str, float]:
        """Per-layer metrics measured outside the spans; ``rec`` holds the
        untraced pass of the traced run."""
        out = {"cli.startup_s": 0.0}
        out.update({f"cli.{sub}.p50_ms": 0.0 for sub in CLI_SUBCOMMANDS})
        return out

    def _timed(self, fn, *args, **kwargs):
        """Run one item and return (result, (end, latency in seconds)).

        While measuring, the machine's speed is probed between items."""
        start = perf_counter()
        if self.tracer is None:
            out = fn(*args, **kwargs)
        else:
            out = self.tracer.run_item(self.items_done, lambda: fn(*args, **kwargs))
        end = perf_counter()
        self.items_done += 1
        if self.speed is not None:
            self.speed.tick()
        return out, (end, end - start)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


# --- bds-discord --------------------------------------------------------------


class BdsDiscord(Workload):
    name = "bds-discord"
    round_items = 100

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        rng = _rng(seed, 1)
        self.triples = [ref.bell_diagonal_triple(rng) for _ in range(4096)]

    def warm_up(self):
        engines.discord_robustness_axis_opt(self.triples[-1], grid=16)

    def run_round(self, r, rec):
        for k in range(self.round_items):
            c = self.triples[(r * self.round_items + k) % len(self.triples)]
            try:
                res, timing = self._timed(engines.discord_robustness_axis_opt, c, grid=16)
            except Exception as exc:  # an item that raises is a failed item
                rec.fail(f"axis-opt {c}: {exc!r}")
                continue
            start = perf_counter()
            middle = ref.middle_abs(c)
            closed = engines.discord_robustness_bds(c)
            problem = None
            if closed != middle or abs(res.value - middle) > ref.AXIS_OPT_TOL:
                problem = f"axis-opt {c}: {res.value!r}, closed form {closed!r}, middle {middle!r}"
            rec.add(timing, problem)
            rec.check_s += perf_counter() - start


# --- ray-audit ----------------------------------------------------------------


class RayAudit(Workload):
    name = "ray-audit"
    tail_q = 95.0
    trace_rounds = 2
    samples = 25  # AuditConfig.samples of the monotonicity, convexity and faithfulness audits
    # The Lipschitz audit gets three times the samples (875 ray solves per
    # round).  About 40% of the other audits' solves return 0 at once and
    # 5% are short zero-discord solves; with equal samples the median item
    # sat on the lower flank of the bisection solves, where machine noise
    # widens the distribution, and moved by a fifth between runs.  With the
    # Lipschitz pairs (18% zero values) weighted up, it sits inside them.
    pair_samples = 75

    def build(self):
        mm = qstates.maximally_mixed()
        self.ppt = free_sets.oracle_by_name("ppt")
        self.zero_discord = free_sets.oracle_by_name("zero-discord")
        self.rays = {
            "ppt": audit.ray_measure(mm, free_sets.oracle_by_name("ppt")),
            "zero-discord": audit.ray_measure(mm, free_sets.oracle_by_name("zero-discord")),
        }
        self.seen: list[tuple] = []

    def warm_up(self):
        self.rays["ppt"](qstates.DensityMatrix(ref.random_state(_rng(self.seed, 0)), (2, 2)))

    def _measure(self, kind: str):
        ray = self.rays[kind]

        def measure(rho):
            value, timing = self._timed(ray, rho)
            self.seen.append((kind, rho.mat, value, timing))
            return value

        return measure

    def run_round(self, r, rec):
        seed = int(np.random.SeedSequence([self.seed, 2, r]).generate_state(1)[0])
        cfg = audit.AuditConfig(samples=self.samples, seed=seed)
        pairs_cfg = audit.AuditConfig(samples=self.pair_samples, seed=seed)
        ppt_ray, zd_ray = self._measure("ppt"), self._measure("zero-discord")
        audits = (
            ("lipschitz", lambda: audit.audit_lipschitz(ppt_ray, ref.PPT_LIPSCHITZ, pairs_cfg)),
            ("monotonicity", lambda: audit.audit_monotonicity(
                ppt_ray, audit.default_channels(seed), self.ppt, cfg)),
            ("convexity", lambda: audit.audit_convexity(ppt_ray, cfg)),
            ("faithfulness", lambda: audit.audit_faithfulness(zd_ray, self.zero_discord, cfg)),
        )
        for check, run in audits:
            self.seen = []
            error = report = None
            try:
                report = run()
            except Exception as exc:  # the ray in flight failed
                error = exc
            start = perf_counter()
            for kind, mat, value, timing in self.seen:
                expected = (ref.ppt_ray_value(mat) if kind == "ppt"
                            else ref.zero_discord_ray_value(mat))
                problem = None
                if not ref.close(value, expected, ref.RAY_TOL):
                    problem = f"{kind} ray in {check} audit: {value!r}, expected {expected!r}"
                rec.add(timing, problem)
            if error is not None:
                rec.fail(f"{check} audit (seed {seed}) raised {error!r}")
            elif not report.passed:
                rec.fail(f"{check} audit (seed {seed}) did not pass: {report!r}", attempted=False)
            rec.check_s += perf_counter() - start


# --- planar -------------------------------------------------------------------


class Planar(Workload):
    name = "planar"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        rng = _rng(seed, 3)
        self.rounds = [sum((self._group(rng) for _ in range(3)), []) for _ in range(32)]

    @staticmethod
    def _group(rng):
        """(scene, point, exact value): 16 counterexample-1 points, 12 on
        each branch of counterexample 2, 8 interior points of scene 2.

        The sweeps are stratified (one random point per equal cell, plus
        the end points), so every round has the same mix of regimes."""

        def strata(lo, hi, n):
            return [lo + (hi - lo) * (k + float(u)) / n for k, u in enumerate(rng.uniform(size=n))]

        items = []
        for t in [*strata(-1.0, 0.0, 8), 0.0, *strata(0.0, 1.0, 7)]:
            items.append((1, (t, 1.0), ref.counterexample1(t)))
        for t in [*strata(0.0, 0.5, 11), 0.5]:
            items.append((2, (0.5 - t, 0.0), ref.counterexample2("a", t)))
        c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
        for t in [*strata(0.0, 2.0 / 3.0, 11), 2.0 / 3.0]:
            r = 2.0 / 3.0 - t
            items.append((2, (r * c, r * s), ref.counterexample2("b", t)))
        interior = 0
        while interior < 8:  # clearly inside the triangle, as in criterion 4
            x, y = rng.uniform(0.05, 0.6, size=2)
            if x + y < 0.9:
                items.append((2, (float(x), float(y)), math.inf))
                interior += 1
        return items

    def build(self):
        self.scenes = {1: geometry2d.scene_counterexample1(0.2),
                       2: geometry2d.scene_counterexample2()}

    def _solve(self, scene: int, point):
        if scene == 1:
            return geometry2d.absolute_robustness_2d(point, self.scenes[1])
        return geometry2d.global_robustness_2d(point, self.scenes[2])

    def warm_up(self):
        self._solve(*self.rounds[-1][0][:2])

    def run_round(self, r, rec):
        for scene, point, expected in self.rounds[r % len(self.rounds)]:
            try:
                value, timing = self._timed(self._solve, scene, point)
            except Exception as exc:
                rec.fail(f"scene {scene} at {point}: {exc!r}")
                continue
            start = perf_counter()
            problem = None
            if not ref.close(value, expected, ref.PLANAR_TOL):
                problem = f"scene {scene} at {point}: {value!r}, expected {expected!r}"
            rec.add(timing, problem)
            rec.check_s += perf_counter() - start


# --- cli-mix ------------------------------------------------------------------


def _bds(c) -> str:
    return ",".join(repr(float(v)) for v in c)


def _json(check):
    """Checker for a JSON-printing command: ``check(payload)`` returns a problem or None."""

    def run(code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        return check(json.loads(out))

    return run


def _csv(check):
    def run(code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        rows = list(csv.reader(io.StringIO(out)))
        return check([[float(v) for v in row] for row in rows[1:]])

    return run


def _rejected(code, out, err):
    if code != 3 or out or not err.startswith("error:") or "Traceback" in err:
        return f"expected exit 3 with an error line, got exit {code}: {err.strip()[-200:]}"
    return None


def _within(name, value, expected, tol):
    if not ref.close(float(value), expected, tol):
        return f"{name} {value!r}, expected {expected!r}"
    return None


def _first(*problems):
    return next((p for p in problems if p), None)


def _sweep_rows(ts, exact):
    def check(rows):
        if len(rows) != len(ts):
            return f"{len(rows)} rows, expected {len(ts)}"
        return _first(*(
            _first(_within("t", t, t_ref, ref.EXACT_TOL),
                   _within("exact", e, exact(t_ref), ref.EXACT_TOL),
                   _within(f"numeric at t={t_ref!r}", v, exact(t_ref), ref.PLANAR_TOL))
            for (t, e, v), t_ref in zip(rows, ts)
        ))

    return check


def _tel_check(mat):
    sf = ref.singlet_fraction(mat)

    def check(p):
        flag_ok = p["unfaithful"] == (p["singlet_fraction"] <= 0.5 + ref.UNFAITHFUL_MARGIN)
        if abs(sf - 0.5) > ref.SINGLET_TOL:
            flag_ok = flag_ok and p["unfaithful"] == (sf <= 0.5 + ref.UNFAITHFUL_MARGIN)
        return _first(_within("singlet fraction", p["singlet_fraction"], sf, ref.SINGLET_TOL),
                      None if flag_ok else f"unfaithful flag {p['unfaithful']} for F = {sf!r}")

    return check


class CliMix(Workload):
    name = "cli-mix"
    tail_q = 75.0
    rss_from_children = True
    passes = 3  # a round is three passes over the command list (45 items)
    probe = "spawn"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.dir = out_dir / f"cli-mix-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = _rng(seed, 4)
        self.lists = [self._commands(rng, k) for k in range(8)]

    def _state_file(self, name: str, mat) -> str:
        path = self.dir / name
        path.write_text(json.dumps({"dims": [2, 2], "re": mat.real.tolist(),
                                    "im": mat.imag.tolist()}))
        return str(path)

    def _commands(self, rng, k):
        """One pass: (argv, checker) for every subcommand, including the
        axis optimiser, tel-check on non-Bell-diagonal states and one input
        the CLI must reject."""
        full, rank2 = ref.random_state(rng, 4), ref.random_state(rng, 2)
        f_full = self._state_file(f"state-{k}-full.json", full)
        f_rank2 = self._state_file(f"state-{k}-rank2.json", rank2)
        c1, c2, c3 = (ref.bell_diagonal_triple(rng) for _ in range(3))
        bad = (0.6 + 0.3 * float(rng.uniform()), 0.6, 0.6)  # 1 - c1 - c2 - c3 < 0
        start, start_wide = (-1.0 + 0.05 * float(u) for u in rng.uniform(size=2))
        # ten points per counterexample-2 sweep, from a random start
        step_a, step_b = 0.05, 1.0 / 15.0
        start_a, start_b = (step * float(u)
                            for step, u in zip((step_a, step_b), rng.uniform(size=2)))
        level = float(rng.uniform(0.1, 0.9))
        audit_seed = int(rng.integers(0, 2**31))
        lo, hi = ref.discord_bounds(full)
        ts_a = ref.sweep(start_a, 0.5, step_a)
        ts_b = ref.sweep(start_b, 2.0 / 3.0, step_b)
        levels = ref.levelset_rows(level, 21)
        return [
            (["discord", "--bds", _bds(c1)], _json(
                lambda p: None if p["value"] == ref.middle_abs(c1) else f"value {p['value']!r}")),
            (["discord", "--bds", _bds(c2), "--method", "axis-opt", "--grid", "16"],
             _json(lambda p: _within("value", p["value"], ref.middle_abs(c2), ref.AXIS_OPT_TOL))),
            (["discord-bounds", "--state", f_full], _json(lambda p: _first(
                _within("lo", p["lo"], lo, ref.BOUNDS_TOL), _within("hi", p["hi"], hi, ref.BOUNDS_TOL)))),
            (["ent-ray", "--state", f_full], _json(lambda p: _within(
                "value", p["value"], ref.ppt_ray_value(full), ref.RAY_TOL))),
            (["ent-ray", "--bds", _bds(c3), "--free-set", "zero-discord"], _json(lambda p: _within(
                "value", p["value"], ref.zero_discord_ray_value(ref.bell_diagonal_matrix(c3)),
                ref.RAY_TOL))),
            (["tel-check", "--state", f_full], _json(_tel_check(full))),
            (["tel-check", "--state", f_rank2], _json(_tel_check(rank2))),
            (["counterexample", "--id", "1", "--sweep", f"{start!r}:1:0.1"],
             _csv(_sweep_rows(ref.sweep(start, 1.0, 0.1), ref.counterexample1))),
            (["counterexample", "--id", "1", "--delta", "0.5", "--sweep", f"{start_wide!r}:1:0.1"],
             _csv(_sweep_rows(ref.sweep(start_wide, 1.0, 0.1),
                              lambda t: ref.counterexample1(t, delta=0.5)))),
            (["counterexample", "--id", "2", "--branch", "a", "--sweep",
              f"{start_a!r}:0.5:{step_a!r}"],
             _csv(_sweep_rows(ts_a, lambda t: ref.counterexample2("a", t)))),
            (["counterexample", "--id", "2", "--branch", "b", "--sweep",
              f"{start_b!r}:{2.0 / 3.0!r}:{step_b!r}"],
             _csv(_sweep_rows(ts_b, lambda t: ref.counterexample2("b", t)))),
            (["levelset", "--r", repr(level), "--grid", "21"], _csv(lambda rows: _first(
                None if len(rows) == len(levels) else f"{len(rows)} rows, expected {len(levels)}",
                *(_within(f"levelset row {want}", got, w, ref.EXACT_TOL)
                  for row, want in zip(rows, levels) for got, w in zip(row, want))))),
            (["audit", "--check", "lipschitz", "--samples", "8", "--seed", str(audit_seed)],
             _json(lambda p: _first(
                 _within("L", p["L"], ref.PPT_LIPSCHITZ, ref.EXACT_TOL),
                 None if p["passed"] and p["violations"] == 0 and p["pairs_tested"] == 32
                 else f"lipschitz audit {p}"))),
            (["audit", "--check", "monotonicity", "--samples", "6", "--seed", str(audit_seed)],
             _json(lambda p: None if p["passed"] and p["checked"] == 18
                   else f"monotonicity audit {p}")),
            (["discord", "--bds", _bds(bad)], _rejected),
        ]

    def _run_cli(self, argv):
        if not self.in_process:
            proc = subprocess.run([sys.executable, "-m", "robustlab.cli", *argv],
                                  capture_output=True, text=True, timeout=120, cwd=ROOT)
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def warm_up(self):
        self._run_cli(self.lists[-1][0][0])

    def run_round(self, r, rec):
        commands = [c for k in range(self.passes)
                    for c in self.lists[(r * self.passes + k) % len(self.lists)]]
        for argv, check in commands:
            try:
                (code, out, err), timing = self._timed(self._run_cli, argv)
            except Exception as exc:
                rec.fail(f"robustlab {' '.join(argv)}: {exc!r}")
                continue
            start = perf_counter()
            try:
                problem = check(code, out, err)
            except (ValueError, KeyError, TypeError) as exc:  # unreadable output
                problem = f"unreadable output {exc!r}"
            rec.add(timing, None if problem is None
                    else f"robustlab {' '.join(argv)}: {problem}", label=argv[0])
            rec.check_s += perf_counter() - start

    def layer_extras(self, rec):
        startup = []
        for _ in range(5):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import robustlab.cli"], check=True, cwd=ROOT)
            startup.append(perf_counter() - start)
        out = {"cli.startup_s": median(startup)}
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.{sub}.p50_ms"] = 1e3 * median(rec.by_label.get(sub, [0.0]))
        return out


WORKLOADS = {w.name: w for w in (BdsDiscord, RayAudit, Planar, CliMix)}
