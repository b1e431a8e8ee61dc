"""Order statistics for per-operation latencies."""

from __future__ import annotations

import bisect
import statistics

# Candidate tail percentiles, highest first, in tenths of a percent so the
# rank arithmetic stays exact.
TAIL_LADDER_TENTHS = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def order_statistic(sorted_values, tenths: int) -> float:
    """The sample at 0-based rank floor(p * n / 100), p given in tenths of a percent.

    This is the upper neighbour of the usual nearest rank.  A workload mixes
    operation kinds of very different cost, so a percentile often falls on
    the boundary between two kinds; the upper neighbour is then the fastest
    sample of the slower kind, which noise moves less than the slowest
    sample of the faster kind.
    """
    n = len(sorted_values)
    return sorted_values[min(n - 1, tenths * n // 1000)]


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the latency tail.

    Picks the highest percentile of TAIL_LADDER_TENTHS with at least
    MIN_BEYOND samples strictly above its value.  With too few samples for
    any of them, the median is returned with its (short) count.
    """
    s = sorted(values)
    if not s:
        raise ValueError("no samples")
    for tenths in TAIL_LADDER_TENTHS:
        value = order_statistic(s, tenths)
        beyond = len(s) - bisect.bisect_right(s, value)
        if beyond >= MIN_BEYOND:
            return tenths / 10.0, value, beyond
    value = order_statistic(s, 500)
    return 50.0, value, len(s) - bisect.bisect_right(s, value)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
