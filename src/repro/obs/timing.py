"""Repeated-measurement helpers: the paper reports medians of ≥10 runs
(Sec. VII)."""

from __future__ import annotations

import time
from typing import Callable, List

import numpy as np

__all__ = ["median_time"]


def median_time(fn: Callable, repetitions: int = 10) -> float:
    """Median wall-clock seconds of ``fn()`` over several runs, after one
    unmeasured warm-up call."""
    fn()
    times: List[float] = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


