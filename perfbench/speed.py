"""The measuring machine's speed, probed while a workload runs.

The benchmark runs on shared hosts whose speed drifts by a third or more
over tens of seconds, and CPU time drifts with wall time: the program runs
slower, it is not preempted.  Ten runs of one program then spread by about
0.2 of their median whatever the run length.  To take that drift out, a
run interleaves a fixed probe between its items and scales each time it
reports to the reference speed: a time measured while the probe took
``p`` seconds is multiplied by ``ref_s / p``, with ``p`` the median of the
``NEAREST`` probes nearest to it.  Raw times are reported beside them.

Two probes, chosen because their times tracked the workloads' best among
those tried (a bytecode loop, bare eigensolves, dict and list churn, an
empty interpreter start):

* ``in-process``: numpy reference values of one state (a partial-transpose
  and a magic-basis eigensolve, and the Bloch vectors: fifteen traces of
  Kronecker products), the mix of Python calls, tiny arrays and small
  eigensolves robustlab spends its time on, taken every ``EVERY_S``
  seconds.  The machine's speed swings over tens of milliseconds, so the
  probe is short and frequent.
* ``spawn``: a fresh interpreter that imports numpy, for cli-mix, whose
  items are dominated by interpreter start and imports.

Neither probe calls robustlab, so a change to the program moves the
scaled times as much as the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import reference as ref

# a fixed full-rank state for the in-process probe
_STATE = ref.random_state(np.random.default_rng([0, 0]))

EVERY_S = 0.008  # wall time between in-process probes
NEAREST = 9  # the median of this many probes nearest a time sets its speed


def probe() -> float:
    """Seconds a fixed piece of in-process work takes now."""
    start = perf_counter()
    ref.ppt_ray_value(_STATE)
    ref.singlet_fraction(_STATE)
    ref.bloch(_STATE)
    return perf_counter() - start


def spawn_probe() -> float:
    """Seconds a fresh interpreter takes to start and import numpy now."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return perf_counter() - start


# kind: (probe, its time at the reference speed (about its median on the
# 2-core Xeon VM the benchmark was built on), wall time between probes)
PROBES = {
    "in-process": (probe, 5e-4, EVERY_S),
    "spawn": (spawn_probe, 0.2, 1.5),
}


class SpeedLog:
    """Probes taken during one run: when, and how long each took."""

    def __init__(self, kind: str = "in-process"):
        self._probe, self.ref_s, self.every = PROBES[kind]
        self.at: list[float] = []  # midpoint of each probe, perf_counter seconds
        self.took: list[float] = []
        self.spent = 0.0  # wall time the probes used, to leave out of busy time
        self._smooth: list[float] | None = None

    def sample(self) -> None:
        start = perf_counter()
        took = self._probe()
        end = perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(took)
        self.spent += end - start
        self._smooth = None

    def tick(self) -> None:
        """Probe if ``every`` seconds have passed since the last probe."""
        if not self.at or perf_counter() - self.at[-1] >= self.every:
            self.sample()

    def _smoothed(self) -> list[float]:
        if self._smooth is None:
            n, half = len(self.at), NEAREST // 2
            self._smooth = []
            for k in range(n):
                lo = min(max(0, k - half), max(0, n - NEAREST))
                self._smooth.append(statistics.median(self.took[lo:lo + NEAREST]))
        return self._smooth

    def factor(self, t: float) -> float:
        """Scale from a time measured at ``t`` to the reference speed."""
        smooth = self._smoothed()
        k = bisect.bisect_left(self.at, t)
        if k == len(self.at) or (k > 0 and t - self.at[k - 1] < self.at[k] - t):
            k -= 1
        return self.ref_s / smooth[k]

    def mean_factor(self) -> float:
        """Time-weighted mean scale over the span of the probes."""
        smooth = self._smoothed()
        if len(self.at) < 2:
            return self.ref_s / smooth[0]
        total = self.at[-1] - self.at[0]
        return sum(self.ref_s / s * (b - a)
                   for s, a, b in zip(smooth[1:], self.at, self.at[1:])) / total

    def speed(self) -> float:
        """Median speed over the run, as a share of the reference speed."""
        return self.ref_s / statistics.median(self.took)


def speed_now(samples: int = 21) -> float:
    """The machine's speed now, as a share of the reference speed, from the
    median of a few in-process probes."""
    log = SpeedLog()
    for _ in range(samples):
        log.sample()
    return log.speed()
