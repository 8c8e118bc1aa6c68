"""In-memory span tracing of robustlab's layers, from outside the library.

The tracer replaces public functions under the names their callers bind
(``engines.support_inv_sqrt``, ``numpy.linalg.eigvalsh``, the oracle
membership tests the free-set constructors capture, ...) with wrappers
that record one span per call: name, start, end, parent span and item id.
A span's layer is the part of its name before the first dot.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, ITEM = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item id]
        self.tally: Counter = Counter()  # counts taken from return values
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.item])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][START] = start
                spans[idx][END] = end
            if hook is not None:
                hook(self.tally, result, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; a name the program no
        longer binds is left alone, so its spans simply stop appearing."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        setattr(owner, attr, self.wrap(original, name, hook))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.tally.clear()
        self._stack.clear()
        self.item = -1

    def run_item(self, item_id: int, fn, *args):
        """Call ``fn`` as item ``item_id`` under a root ``bench.item`` span."""
        self.item = item_id
        try:
            return self.wrap(fn, "bench.item")(*args)
        finally:
            self.item = -1

    def dump(self, path, **meta) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(
            (max(lo, spans[c][START]), min(hi, spans[c][END])) for c in children[i]
        ):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


# --- what is traced ---------------------------------------------------------


def _count_validated(tally, _result, kwargs):
    if kwargs.get("validate", True):
        tally["qstates.validated"] += 1


def _ray_evals(tally, result, _kwargs):
    tally["engines.ray.member_evals"] += result.iterations


def _axis_evals(tally, result, _kwargs):
    tally["engines.axis_opt.evals"] += result.iterations


def _finite(tally, result, _kwargs):
    tally["geometry2d.finite"] += math.isfinite(result)


def _report(tally, rep, _kwargs):
    tested = getattr(rep, "pairs_tested", None)
    if tested is None:
        tested = getattr(rep, "checked", None)
    if tested is None:  # faithfulness checks single states, not pairs
        tested = rep.free_checked + rep.nonfree_checked
    tally["audit.batches"] += 1
    tally["audit.pairs_tested"] += tested
    tally["audit.infinite_skipped"] += getattr(rep, "infinite_skipped", 0)


def install_layers(tracer: Tracer) -> None:
    """Wrap robustlab's public functions at every name a caller binds."""
    import numpy as np

    from robustlab import audit, cli, engines, free_sets, geometry2d, operator_core, qstates

    t = tracer
    # operator_core: eigensolves from any module, and the core helpers
    t.patch(np.linalg, "eigh", "operator_core.eigensolve")
    t.patch(np.linalg, "eigvalsh", "operator_core.eigensolve")
    for owner, attr in (
        (engines, "support_inv_sqrt"),
        (free_sets, "partial_transpose"),
        (free_sets, "trace_norm"),
        (qstates, "trace_norm"),
        (qstates, "require_hermitian"),
        (operator_core, "eig_hermitian"),
    ):
        t.patch(owner, attr, f"operator_core.{attr}")

    # qstates: every DensityMatrix construction, plus the state helpers
    t.patch(qstates.DensityMatrix, "__init__", "qstates.DensityMatrix", _count_validated)
    for owner in (engines, free_sets, audit, cli):
        for attr in ("bell_diagonal", "bloch_decompose", "random_density", "random_unitary",
                     "trace_distance", "maximally_mixed", "state_from_json", "state_to_json"):
            if hasattr(owner, attr):
                t.patch(owner, attr, f"qstates.{attr}")

    # free_sets: membership tests (oracles built afterwards capture these)
    for attr in ("is_ppt", "has_zero_discord", "is_unfaithful"):
        t.patch(free_sets, attr, "free_sets.member")
    t.patch(cli, "is_unfaithful", "free_sets.member")
    for owner in (free_sets, cli):
        t.patch(owner, "singlet_fraction", "free_sets.singlet_fraction")
        t.patch(owner, "bds_params_of", "free_sets.bds_params_of")
    t.patch(free_sets, "discord_defect", "free_sets.discord_defect")
    t.patch(audit, "sample_trace_ball", "free_sets.sample_trace_ball")
    t.patch(cli, "oracle_by_name", "free_sets.oracle_by_name")

    # engines
    for owner in (audit, cli):
        t.patch(owner, "robustness_along_ray", "engines.ray", _ray_evals)
    t.patch(engines, "min_scaling_robustness", "engines.min_scaling")
    for owner in (engines, cli):
        t.patch(owner, "discord_robustness_axis_opt", "engines.axis_opt", _axis_evals)
    for attr in ("discord_robustness_bds", "discord_robustness_bounds",
                 "discord_levelset_grid", "lipschitz_from_kappa_ball"):
        t.patch(cli, attr, f"engines.{attr}")

    # geometry2d
    for owner in (geometry2d, cli):
        for attr in ("absolute_robustness_2d", "global_robustness_2d"):
            t.patch(owner, attr, "geometry2d.solve", _finite)
    t.patch(geometry2d.PlanarFreeSet, "contains", "geometry2d.contains")
    t.patch(geometry2d.PlanarScene, "contains", "geometry2d.contains")
    for attr in ("scene_counterexample1", "scene_counterexample2", "counterexample1_exact",
                 "counterexample2_exact", "counterexample1_point", "counterexample2_point"):
        t.patch(cli, attr, f"geometry2d.{attr}")

    # audit
    for kind in ("lipschitz", "monotonicity", "convexity", "faithfulness"):
        t.patch(audit, f"audit_{kind}", f"audit.{kind}", _report)

    # cli
    t.patch(cli, "main", "cli.main")


# --- per-layer metrics --------------------------------------------------------

LAYERS = ("operator_core", "qstates", "free_sets", "engines", "geometry2d", "audit", "cli")


def layer_metrics(tracer: Tracer, items: int) -> dict[str, float]:
    """Counts and self times per item over everything the tracer recorded."""
    spans = tracer.spans
    calls = Counter(s[NAME] for s in spans)
    self_by_name = Counter()
    layer_self = Counter()
    for s, own in zip(spans, self_times(spans)):
        self_by_name[s[NAME]] += own
        layer_self[s[NAME].split(".", 1)[0]] += own
    tally = tracer.tally
    per = 1.0 / items

    def share(num, den):
        return num / den if den else 0.0

    tested, skipped = tally["audit.pairs_tested"], tally["audit.infinite_skipped"]
    m = {
        "operator_core.eigensolves": calls["operator_core.eigensolve"] * per,
        "qstates.constructions": calls["qstates.DensityMatrix"] * per,
        "qstates.validated": share(tally["qstates.validated"], calls["qstates.DensityMatrix"]),
        "free_sets.member_calls": calls["free_sets.member"] * per,
        "free_sets.singlet_fraction.calls": calls["free_sets.singlet_fraction"] * per,
        "free_sets.singlet_fraction.self_s": self_by_name["free_sets.singlet_fraction"] * per,
        "engines.ray.calls": calls["engines.ray"] * per,
        "engines.ray.member_evals": tally["engines.ray.member_evals"] * per,
        "engines.ray.self_s": self_by_name["engines.ray"] * per,
        "engines.min_scaling.calls": calls["engines.min_scaling"] * per,
        "engines.axis_opt.evals": tally["engines.axis_opt.evals"] * per,
        "geometry2d.solves": calls["geometry2d.solve"] * per,
        "geometry2d.contains_calls": calls["geometry2d.contains"] * per,
        "geometry2d.finite_share": share(tally["geometry2d.finite"], calls["geometry2d.solve"]),
        "audit.batches": tally["audit.batches"],
        "audit.pairs_tested": tested,
        "audit.infinite_skipped": skipped,
        "audit.useful_ratio": share(tested, tested + skipped),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] * per
    return m
