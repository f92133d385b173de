"""Initial schedule heuristics (Sec. VI-A).

"We search the available space on a representative horizontal stencil and
vertical solver separately, and apply the resulting scheme en masse in the
dynamical core, providing a better starting point over the default
parameters." The sweep evaluates every feasible schedule (Sec. V-A) of a
representative kernel under the machine model and applies the winner to
every kernel of the same iteration policy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.machine import MachineModel
from repro.core.perfmodel import model_kernel_time
from repro.sdfg.nodes import Kernel, KernelSchedule, feasible_schedules


def sweep_schedules(
    kernel: Kernel, sdfg, machine: MachineModel
) -> List[Tuple[KernelSchedule, float]]:
    """Evaluate all feasible schedules of one kernel, best first."""
    results = []
    original = kernel.schedule
    try:
        for sched in feasible_schedules(kernel.order):
            sched = sched.copy()
            sched.cached_fields = dict(original.cached_fields)
            sched.regions_as_predication = original.regions_as_predication
            sched.fuse_intervals = original.fuse_intervals
            kernel.schedule = sched
            results.append((sched, model_kernel_time(kernel, sdfg, machine)))
    finally:
        kernel.schedule = original
    results.sort(key=lambda r: r[1])
    return results


def representative_kernels(sdfg) -> Dict[str, Kernel]:
    """Pick the most expensive kernel of each iteration policy class.

    "Representative" = the kernel moving the most bytes: its schedule
    choice dominates the class.
    """
    best: Dict[str, Tuple[int, Kernel]] = {}
    for kernel in sdfg.all_kernels():
        cls = "vertical" if kernel.order in ("FORWARD", "BACKWARD") else "horizontal"
        nbytes = kernel.moved_bytes(sdfg)
        if cls not in best or nbytes > best[cls][0]:
            best[cls] = (nbytes, kernel)
    return {cls: k for cls, (_, k) in best.items()}


def apply_schedule_heuristics(
    sdfg, machine: MachineModel, reps: Optional[Dict[str, Kernel]] = None
) -> Dict[str, KernelSchedule]:
    """Sweep representatives and apply the winners en masse.

    Returns the chosen schedule per class. With the paper's layout and
    machine this recovers [Interval, Operation, K, J, I] for horizontal
    stencils and [J, I, Interval, Operation, K] for vertical solvers
    (Sec. VI-A4).
    """
    reps = reps or representative_kernels(sdfg)
    chosen: Dict[str, KernelSchedule] = {}
    for cls, kernel in reps.items():
        ranked = sweep_schedules(kernel, sdfg, machine)
        chosen[cls] = ranked[0][0]
    for kernel in sdfg.all_kernels():
        cls = "vertical" if kernel.order in ("FORWARD", "BACKWARD") else "horizontal"
        if cls in chosen:
            sched = chosen[cls].copy()
            # per-kernel attributes are preserved; only the layout-related
            # knobs are transferred en masse
            sched.cached_fields = dict(kernel.schedule.cached_fields)
            sched.regions_as_predication = kernel.schedule.regions_as_predication
            sched.fuse_intervals = kernel.schedule.fuse_intervals
            sched.device = kernel.schedule.device
            kernel.schedule = sched
    return chosen


def select_cpu_tiles(
    kernel: Kernel, sdfg, machine: MachineModel
) -> Tuple[int, Optional[int]]:
    """(k-block size, i-tile) for the compiled CPU backend's loop nests.

    Starts from the machine model's ``CPU_K_BLOCK`` (the block depth the
    perf model assumes keeps a kernel's working set cache-resident) and
    halves it while the per-block working set still exceeds the machine's
    last-level cache. The i-tile is taken from the kernel's tuned
    ``schedule.tile_sizes`` when one was chosen by the transfer-tuning
    sweep; ``None`` means "no tiling" (a plain i loop).
    """
    from repro.core.perfmodel import CPU_K_BLOCK

    nk = max(kernel.domain[2], 1)
    kb = max(1, min(CPU_K_BLOCK, nk))
    per_level = max(kernel.moved_bytes(sdfg) // nk, 1)
    cache = getattr(machine, "cache_bytes", 0) or 0
    if cache:
        while kb > 1 and per_level * kb > cache:
            kb //= 2
    tile = kernel.schedule.tile_sizes
    i_tile = tile[0] if tile and tile[0] and tile[0] > 0 else None
    return kb, i_tile
