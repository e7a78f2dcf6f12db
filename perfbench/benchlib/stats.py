"""Summary statistics and the percentile rule the benchmark reports by.

A timing is reported as its median plus the highest percentile that has
at least :data:`MIN_BEYOND` samples beyond it.  Each workload fixes the
tail percentile it gates on (so a faster program that collects more
samples is still compared at the same percentile); :func:`tail_summary`
records whether the rule holds for the samples actually collected.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10

#: The percentiles the rule chooses from, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 98.0, 99.0, 99.9, 99.99)


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the ``pct``-th percentile."""
    return math.floor(count * (100.0 - pct) / 100.0 + 1e-9)


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it.

    None when even the median is not supported (fewer than 20 samples).
    """
    best = None
    for pct in PERCENTILE_LADDER:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction)


def tail_summary(values: Sequence[float], pct: Optional[float]) -> Dict[str, float]:
    """Median and the fixed tail percentile of ``values``.

    ``pct=None`` is for workloads whose runs hold too few operations for
    any percentile to be supported: no tail is measurable, and the
    median stands in for it.  ``rule_ok`` says whether the tail has
    MIN_BEYOND samples beyond it.
    """
    count = len(values)
    pct_used = 50.0 if pct is None else pct
    beyond = samples_beyond(count, pct_used)
    return {
        "p50": percentile(values, 50.0),
        "tail": percentile(values, pct_used),
        "tail_pct": pct_used,
        "samples": count,
        "beyond": beyond,
        "rule_ok": beyond >= MIN_BEYOND,
    }


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return {"q1": only, "median": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"q1": q1, "median": median, "q3": q3, "spread": spread}


def union_length(intervals: List[tuple]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total
