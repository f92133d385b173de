"""Sample statistics used by the benchmark (standard library only)."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]; the value returned is
    always one of the samples. ``inf`` samples (failed operations) sort
    last, so enough failures push a percentile to ``inf``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[min(rank, len(ordered)) - 1]


def pooled(groups: Sequence[Sequence[float]]) -> List[float]:
    """Concatenate the per-process sample lists of one workload."""
    out: List[float] = []
    for group in groups:
        out.extend(group)
    return out


def floor_time(samples: Sequence[float]) -> float:
    """The fastest sample: what the operation costs when the host is
    quiet."""
    return min(samples)


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] as ``statistics.quantiles(values, n=4)`` gives
    them (one value: all three equal it)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def max_pairwise_diff(values: Sequence[float]) -> float:
    """Largest relative difference between any two of ``values``."""
    lo, hi = min(values), max(values)
    return (hi - lo) / lo if lo else 0.0


def summarize(samples: Sequence[float]) -> Dict[str, Optional[float]]:
    """What the report prints beside a timing: floor, quartiles, the
    highest percentile with at least ten samples beyond it, and n."""
    n = len(samples)
    q1, med, q3 = quartiles(samples)
    tail_q = None
    for q in (99, 95, 90):
        if n - math.ceil(n * q / 100.0) >= 10:
            tail_q = q
            break
    return {
        "n": n,
        "floor": floor_time(samples),
        "q1": q1,
        "median": med,
        "q3": q3,
        "tail_percentile": tail_q,
        "tail": percentile(samples, tail_q) if tail_q else None,
    }
