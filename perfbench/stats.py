"""Order statistics used by the benchmark's reports.

Timings are reported as a median plus the highest percentile that still
has at least :data:`MIN_BEYOND` samples beyond it, together with the
sample count, so a tail figure is never read off one or two outliers.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: A tail percentile is reported only when at least this many samples lie
#: strictly beyond it.
MIN_BEYOND = 10

#: Percentiles considered for the tail, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (NumPy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least :data:`MIN_BEYOND` samples beyond it.

    ``n * (1 - p/100)`` samples lie beyond percentile ``p``; the rule keeps
    the largest ``p`` for which that count reaches the minimum, or ``None``
    when even the median lacks it (fewer than ``2 * MIN_BEYOND`` samples).
    """
    best = None
    for pct in TAIL_LADDER:
        # Integer arithmetic on hundredths of a percent avoids float edge
        # cases such as 1000 * (1 - 0.99) == 9.999999999999998.
        beyond = n * (10_000 - round(pct * 100)) / 10_000
        if beyond + 1e-9 >= MIN_BEYOND:
            best = pct
    return best


def latency_summary(samples_s: Sequence[float]) -> dict[str, float]:
    """``p50_us``, ``tail_us``, ``tail_pct`` and ``samples`` of durations in seconds.

    When too few samples exist for any percentile, the figures are 0.
    """
    n = len(samples_s)
    pct = tail_percentile(n)
    if pct is None:
        return {"p50_us": 0.0, "tail_us": 0.0, "tail_pct": 0.0, "samples": float(n)}
    return {
        "p50_us": percentile(samples_s, 50.0) * 1e6,
        "tail_us": percentile(samples_s, pct) * 1e6,
        "tail_pct": pct,
        "samples": float(n),
    }


def quartile_spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as ``statistics.quantiles`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else math.inf
