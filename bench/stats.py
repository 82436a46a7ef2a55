"""Order statistics for the benchmark: the median, and the highest percentile
that a sample supports (at least ten samples beyond it)."""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of all
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def supported_tail(values, highest: float = 99.0) -> tuple[float, float] | None:
    """The highest percentile in TAIL_PERCENTILES, at most ``highest``, with at
    least MIN_BEYOND samples ranked above it, as ``(q, value)``; None when the
    sample is too small for any of them."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        if q <= highest and n - max(1, math.ceil(q / 100 * n)) >= MIN_BEYOND:
            return q, percentile(values, q)
    return None


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` cuts them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
