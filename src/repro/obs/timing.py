"""Repeated-measurement helpers: the paper reports medians of ≥10 runs
(Sec. VII)."""

from __future__ import annotations

import time
from typing import Callable, List

import numpy as np

__all__ = ["confidence_interval", "median_time"]


def median_time(fn: Callable, repetitions: int = 10, warmup: int = 1) -> float:
    """Median wall-clock seconds of ``fn()`` over several runs."""
    for _ in range(warmup):
        fn()
    times: List[float] = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def confidence_interval(samples, level: float = 0.95):
    """Nonparametric CI of the median (as in the Fig. 11 shading)."""
    import math

    xs = sorted(samples)
    n = len(xs)
    if n < 3:
        return xs[0], xs[-1]
    z = 1.96 if level >= 0.95 else 1.64
    lo = max(0, int(math.floor((n - z * math.sqrt(n)) / 2)))
    hi = min(n - 1, int(math.ceil(1 + (n + z * math.sqrt(n)) / 2)) - 1)
    return xs[lo], xs[hi]
