"""Memory-bandwidth-bound performance modeling (Sec. VI-C, Fig. 10).

The paper's automated analysis is "a simple script (17 lines of Python)
that computes the peak performance of each SDFG map, if it were memory
bandwidth bound ... considering every element of the field being accessed
once, even if multiple threads access the same element". This module is
that script grown into a library:

- :func:`peak_time` — the bandwidth bound itself (the paper's 17-liner);
- :func:`model_kernel_time` — a predicted runtime adding the effects the
  bound ignores (occupancy ramp, launch overhead, repeated-access traffic,
  compute-boundness, CPU cache blocking);
- :func:`bound_report` — the Fig. 10 table: worst-performing, most
  important kernels ranked by aggregate runtime with % of peak bandwidth.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.machine import MachineModel
from repro.sdfg.nodes import Kernel


def parallel_work(kernel: Kernel) -> int:
    """Concurrent threads exposed by a kernel's schedule.

    Vertical solvers iterate K sequentially, exposing only a 2D thread
    grid (the paper's explanation for Riemann-solver underutilization at
    small domains, Sec. VIII-B).
    """
    ni, nj, nk = kernel.domain
    work = ni * nj
    if kernel.order == "PARALLEL" and "K" not in kernel.schedule.loop_dims:
        work *= nk
    return max(work, 1)


def coalescing_factor(kernel: Kernel, machine: MachineModel) -> float:
    """Bandwidth efficiency of the innermost access order.

    With the paper's I-contiguous (FORTRAN) layout, schedules whose
    unit-stride dimension is I generate wide/coalesced loads; any other
    innermost dimension pays the machine's uncoalesced fraction.
    """
    if machine.kind != "gpu":
        return 1.0  # the CPU baseline is tuned/vectorized by construction
    order = kernel.schedule.iteration_order
    inner = None
    for dim in reversed(order):
        if dim in ("I", "J", "K") and dim not in kernel.schedule.loop_dims:
            inner = dim
            break
    return 1.0 if inner == "I" else machine.uncoalesced_fraction


#: K-levels the FORTRAN schedule keeps in flight when blocking (several
#: 2D slices per field are resident simultaneously across fused loops)
CPU_K_BLOCK = 12


def working_set_bytes(kernel: Kernel, sdfg) -> int:
    """CPU blocking-model working set.

    Horizontal computations are k-blocked in the FORTRAN schedule: the hot
    set is a handful of 2D slices of each accessed field. Vertical solvers
    traverse whole columns, defeating the blocking — their working set is
    the full 3D access footprint (Sec. VIII-B).
    """
    total = kernel.moved_bytes(sdfg)
    if kernel.order == "PARALLEL":
        nk = max(kernel.domain[2], 1)
        return max(total * min(CPU_K_BLOCK, nk) // nk, 1)
    return total


def recompute_pays(
    extra_flops: int, stored_bytes: int, machine: MachineModel
) -> bool:
    """Whether evaluating a kernel-local value again where it is read
    (``extra_flops`` more arithmetic per grid point) is cheaper than
    keeping it in an array (``stored_bytes`` per point through memory:
    its store and the loads that read it back) — Sec. VI-A's on-the-fly
    fusion, priced the way the rest of the model prices a kernel."""
    return (
        extra_flops / machine.peak_flops
        < stored_bytes / machine.achievable_bandwidth
    )


def peak_time(kernel: Kernel, sdfg, machine: MachineModel) -> float:
    """The paper's bandwidth bound: bytes moved once / peak bandwidth."""
    return kernel.moved_bytes(sdfg) / machine.peak_bandwidth


def model_kernel_time(kernel: Kernel, sdfg, machine: MachineModel) -> float:
    """Predicted kernel runtime on a machine model."""
    nbytes = kernel.moved_bytes(sdfg)
    excess = kernel.excess_access_bytes(sdfg)
    flops = kernel.flops()
    if machine.kind == "gpu":
        bw = (
            machine.achievable_bandwidth
            * machine.occupancy(parallel_work(kernel))
            * coalescing_factor(kernel, machine)
        )
        t_mem = nbytes / bw
        if machine.cache_bandwidth:
            t_mem += excess / machine.cache_bandwidth
        t_compute = flops / machine.peak_flops
        return kernel.launch_count() * machine.launch_overhead + max(
            t_mem, t_compute
        )
    # CPU: cache-aware blocking model. The k-blocked FORTRAN schedule only
    # benefits from caches when the kernel actually *re-uses* data (stencil
    # offsets, inter-operation reuse — proxied by the repeated-access
    # excess); streaming kernels (e.g. a copy) run at STREAM bandwidth.
    reuse = excess / max(nbytes, 1)
    if reuse >= 0.5:
        bw = machine.effective_cpu_bandwidth(working_set_bytes(kernel, sdfg))
    else:
        bw = machine.achievable_bandwidth
    # vertical solvers traverse columns against the layout
    if kernel.order in ("FORWARD", "BACKWARD"):
        bw *= machine.uncoalesced_fraction
    t_mem = nbytes / bw
    t_compute = flops / machine.peak_flops
    return max(t_mem, t_compute)


def model_sdfg_time(sdfg, machine: MachineModel) -> float:
    """Predicted program runtime: sum over kernels × loop invocations."""
    invocations = sdfg.kernel_invocations()
    total = 0.0
    for si, state in enumerate(sdfg.states):
        for node in state.nodes:
            if isinstance(node, Kernel):
                total += invocations[si] * model_kernel_time(node, sdfg, machine)
    return total


@dataclasses.dataclass
class KernelPerf:
    """One row of the Fig. 10 report."""

    label: str
    runtime: float  # modeled or measured, worst configuration
    total_runtime: float  # summed over invocations (importance ranking)
    peak: float  # bandwidth-bound lower bound (largest configuration)
    invocations: int

    @property
    def utilization(self) -> float:
        """Fraction of peak memory bandwidth attained."""
        return min(1.0, self.peak / self.runtime) if self.runtime > 0 else 0.0


def bound_report(
    graphs,
    machine: MachineModel,
    measured: Optional[Dict[str, float]] = None,
    top: int = 10,
) -> List[KernelPerf]:
    """Rank the kernels of ``graphs`` (the SDFGs of one program or of a
    whole step) by overall importance with % peak bandwidth.

    Kernels executing under different configurations are grouped by label;
    the maximal runtime and largest modeled configuration are reported
    (Sec. VI-C). ``measured`` optionally supplies instrumented runtimes per
    kernel label (overriding the model), as in the paper's workflow where
    modeling is combined with runtime results.
    """
    grouped: Dict[str, KernelPerf] = {}
    for sdfg in graphs:
        invocations = sdfg.kernel_invocations()
        for si, state in enumerate(sdfg.states):
            for node in state.kernels:
                if measured and node.label in measured:
                    runtime = measured[node.label]
                else:
                    runtime = model_kernel_time(node, sdfg, machine)
                pk = peak_time(node, sdfg, machine)
                inv = invocations[si]
                row = grouped.get(node.label)
                if row is None:
                    grouped[node.label] = KernelPerf(
                        node.label, runtime, runtime * inv, pk, inv
                    )
                else:
                    row.runtime = max(row.runtime, runtime)
                    row.peak = max(row.peak, pk)
                    row.total_runtime += runtime * inv
                    row.invocations += inv
    rows = sorted(grouped.values(), key=lambda r: -r.total_runtime)
    return rows[:top]


def format_bound_report(rows: List[KernelPerf]) -> str:
    """Render a Fig. 10-style text table."""
    lines = [
        f"{'kernel':<42} {'invoc':>6} {'runtime':>12} {'peak (BW)':>12} {'% peak':>8}"
    ]
    for r in rows:
        lines.append(
            f"{r.label[:42]:<42} {r.invocations:>6} "
            f"{r.runtime * 1e6:>10.2f}us {r.peak * 1e6:>10.2f}us "
            f"{100 * r.utilization:>7.2f}%"
        )
    return "\n".join(lines)
