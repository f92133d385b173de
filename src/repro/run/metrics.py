"""Ensemble amortization accounting for the obs report footer.

The whole point of batching members through one driver is that the
second member stops paying the first member's fixed costs: compiled
programs come out of the content-hash cache, scratch arrays out of the
buffer pool, and the cubed-sphere geometry is built once and shared.
The driver adds, per ``run()``, the compile-cache and pool deltas
observed *during* the run plus the grid builds it avoided to the set
declared here; the obs report footer (``ensemble:`` line) and
:func:`summary` expose the accumulated totals.

The set also counts the engines (:class:`~repro.fv3.dyncore.DynamicalCore`)
this process built and freed, the second by a ``weakref.finalize`` on
each: a finished run, a closed driver or a closed service frees its
engine by reference counting, so ``engines_alive`` is the engines
something still holds — a number that grows run after run is a leak.
They describe this process (locals): a worker's engines stay its own.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict

from repro.obs.counters import Counters, register

__all__ = ["COUNTERS", "count_engine", "reset_metrics", "summary"]

#: engines built and freed in this process
_ENGINES = {"engines_built": 0, "engines_freed": 0}
_ENGINES_LOCK = threading.Lock()


def _count(name: str) -> None:
    with _ENGINES_LOCK:
        _ENGINES[name] += 1


def count_engine(engine) -> None:
    """Count ``engine`` as built now, and as freed when it is."""
    _count("engines_built")
    weakref.finalize(engine, _count, "engines_freed")


def _with_amortization(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The compile amortization rate: hits / (hits + misses) observed
    during driver runs, and the engines still alive."""
    compiled = snapshot["compile_hits"] + snapshot["compile_misses"]
    snapshot["compile_amortization"] = (
        snapshot["compile_hits"] / compiled if compiled else None
    )
    snapshot["engines_alive"] = (
        snapshot["engines_built"] - snapshot["engines_freed"]
    )
    return snapshot


COUNTERS = register("ensemble", Counters(
    sums=(
        "runs", "members", "member_steps", "seconds", "grid_builds",
        "grid_builds_avoided", "compile_hits", "compile_misses",
        # whole-member state copies made by the swap
        # (``repro.run.driver._load``): a member's state into the
        # engine's arrays, and an evicted member's out of them
        "state_copies_in", "state_copies_out",
    ),
    local={
        "engines_built": lambda: _ENGINES["engines_built"],
        "engines_freed": lambda: _ENGINES["engines_freed"],
    },
    derive=_with_amortization,
))
summary = COUNTERS.snapshot
reset_metrics = COUNTERS.reset
