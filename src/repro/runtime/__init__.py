"""Runtime memory subsystem: pooled scratch buffers and compiled-program
caching for the zero-allocation hot path.

The paper's measured per-kernel times (Fig. 10) are meaningful only if
they reflect array traffic, not allocator churn. This package removes the
two allocation sources the generated NumPy programs had:

- :mod:`repro.runtime.pool` — the scratch arena: a stack of slabs per
  worker (a rank executor's compute slot, or the calling thread). A
  compiled program takes its worker's slab for the call, in which every
  temporary it has (expression scratch, kernel-local arrays, SDFG
  transients) is an interval fixed at compile time, and a core sizes
  those slabs before its first step, so steady-state execution performs
  no array allocation.
- :mod:`repro.runtime.compile_cache` — program and plan records: the
  templates of orchestrated programs and the images of their plans
  (:class:`~repro.sdfg.plan.CompiledSDFG`), keyed by content and kept in
  memory and beside the kernels on disk, so a second process, and
  autotuning's repeated candidates, restore what was traced and
  generated before instead of doing it again.
- :mod:`repro.runtime.ranks` — the SPMD rank executor: the one per-rank
  body, interleaved at its wait points on the calling thread or run on
  one thread per rank with a compute-slot cap (the slots are the
  arena's workers), plus the halo overlap
  accounting (``overlap_efficiency`` on the obs footer's ``ranks:`` line).
- :mod:`repro.runtime.jit` — JIT engine probing + compilation for the
  ``compiled`` backend (PR 8), with compile-count/wall-time counters so
  reports attribute warmup cost separately from steady-state kernels.
- :mod:`repro.runtime.procs` — the process-based rank executor (PR 10):
  worker processes own contiguous rank blocks and exchange halos over a
  shared-memory mailbox; imported lazily (only runs that ask for
  ``executor="processes"`` pay for it).

Each of the five declares its counters as one registered
:class:`~repro.obs.counters.Counters` set; :func:`runtime_summary` is the
registry's snapshot of those groups.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.counters import REGISTRY
from repro.runtime.pool import BufferPool, get_pool
from repro.runtime import compile_cache
from repro.runtime import jit
from repro.runtime import ranks
from repro.runtime.ranks import RankExecutor

__all__ = [
    "BufferPool", "get_pool", "compile_cache", "jit",
    "ranks",
    "RankExecutor", "runtime_summary",
]

_GROUPS = ("pool", "compile_cache", "jit", "ranks", "procs")


def runtime_summary() -> Dict[str, Dict[str, object]]:
    """Pool, compile-cache, JIT and rank-executor counters for reports
    (all zero when the subsystems have not been exercised), and the
    process executor's once a run has imported it."""
    return {
        group: REGISTRY[group].snapshot()
        for group in _GROUPS if group in REGISTRY
    }
