"""Order statistics used by the benchmark."""

from __future__ import annotations

import statistics


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median, with the quartiles of ``statistics.quantiles(values, n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def hd_percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile: a weighted mean of
    all order statistics with Beta(q(n+1), (1-q)(n+1)) weights.

    With a few dozen items of several kinds (cli-mix) the sample percentile
    jumps from one kind's latency to the next as noise reorders them; this
    estimate moves smoothly.  For thousands of items the two agree.
    """
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ xs)
