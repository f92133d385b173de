"""Ensemble amortization accounting for the obs report footer.

The whole point of batching members through one driver is that the
second member stops paying the first member's fixed costs: compiled
programs come out of the content-hash cache, scratch arrays out of the
buffer pool, and the cubed-sphere geometry is built once and shared.
The driver adds, per ``run()``, the compile-cache and pool deltas
observed *during* the run plus the grid builds it avoided to the set
declared here; the obs report footer (``ensemble:`` line) and
:func:`summary` expose the accumulated totals.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.counters import Counters, register

__all__ = ["COUNTERS", "reset_metrics", "summary"]


def _with_amortization(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The compile amortization rate: hits / (hits + misses) observed
    during driver runs."""
    compiled = snapshot["compile_hits"] + snapshot["compile_misses"]
    snapshot["compile_amortization"] = (
        snapshot["compile_hits"] / compiled if compiled else None
    )
    return snapshot


COUNTERS = register("ensemble", Counters(
    sums=(
        "runs", "members", "member_steps", "seconds", "grid_builds",
        "grid_builds_avoided", "compile_hits", "compile_misses",
        "pool_reuse_hits",
    ),
    derive=_with_amortization,
))
summary = COUNTERS.snapshot
reset_metrics = COUNTERS.reset
