"""Machine models of the paper's evaluation hardware.

The paper's discipline is model-driven performance engineering: the key
quantity is attainable memory bandwidth (Sec. VIII). The GPU we obviously
cannot run here is *modeled* from first principles with the same numbers
the paper measures:

- Piz Daint XC50 node: Intel Xeon E5-2690 v3 (Haswell, 12 cores), STREAM
  43.77 GB/s, copy-stencil 40.99 GiB/s; NVIDIA P100, 501.1 GB/s peak,
  copy-stencil 489.83 GiB/s → 11.45× bandwidth ratio.
- JUWELS Booster node: NVIDIA A100, 2.83× the P100 memory bandwidth.
- Cray Aries interconnect: LogGP-style latency/bandwidth model used for
  the Fig. 11 weak-scaling projection.

Beyond raw bandwidth, two effects shape Table II:

- GPUs are *underutilized at small parallelism* (vertical solvers use 2D
  thread grids) — an occupancy ramp reduces effective bandwidth until
  enough threads are resident, plus a fixed launch overhead per kernel.
- CPUs with the FORTRAN k-blocking schedule are *cache-resident at small
  domains* — an explicit cache-capacity model raises effective bandwidth
  while the per-slice working set fits in L2/L3 and degrades toward DRAM
  bandwidth as the domain grows (the super-linear scaling of Table II).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

GB = 1e9
GiB = 2**30
US = 1e-6


@dataclasses.dataclass(frozen=True)
class MachineModel:
    """Performance model of one processor."""

    name: str
    kind: str  # "gpu" or "cpu"
    peak_bandwidth: float  # B/s (vendor peak)
    achievable_fraction: float  # measured copy-stencil / peak
    peak_flops: float  # FLOP/s (double precision)
    launch_overhead: float = 0.0  # s per kernel launch
    #: resident threads needed to saturate memory bandwidth (GPU)
    saturation_threads: int = 1
    #: L2-ish bandwidth serving repeated (cached) accesses
    cache_bandwidth: Optional[float] = None
    #: cache capacity for the CPU blocking model
    cache_bytes: Optional[int] = None
    #: fraction of peak bandwidth attainable from DRAM with a poor
    #: (non-coalesced / strided) innermost access order
    uncoalesced_fraction: float = 0.3

    @property
    def achievable_bandwidth(self) -> float:
        return self.peak_bandwidth * self.achievable_fraction

    def occupancy(self, parallel_work: int) -> float:
        """Fraction of attainable bandwidth sustained by this much
        parallelism (GPU occupancy ramp; CPUs saturate immediately)."""
        if self.kind != "gpu":
            return 1.0
        frac = parallel_work / self.saturation_threads
        # smooth ramp: little's law-ish, saturating at 1
        return frac / (1.0 + frac)

    def effective_cpu_bandwidth(self, working_set_bytes: int) -> float:
        """Cache-aware effective bandwidth for the CPU blocking model."""
        dram = self.achievable_bandwidth
        if self.cache_bytes is None or self.cache_bandwidth is None:
            return dram
        if working_set_bytes <= 0:
            return self.cache_bandwidth
        ratio = min(1.0, self.cache_bytes / working_set_bytes)
        # fraction `ratio` of accesses hit cache, the rest go to DRAM
        return 1.0 / (ratio / self.cache_bandwidth + (1.0 - ratio) / dram)


#: Intel Xeon E5-2690 v3 (Haswell) as configured in production: 6 ranks ×
#: 4 threads. STREAM 43.77 GB/s; copy stencil 40.99 GiB/s (Sec. VIII-A).
HASWELL = MachineModel(
    name="Xeon E5-2690 v3 (Haswell)",
    kind="cpu",
    peak_bandwidth=43.77 * GB,
    achievable_fraction=(40.99 * GiB) / (43.77 * GB),
    peak_flops=0.48e12,  # 12 cores × 2.6 GHz × 16 DP flop/cycle
    launch_overhead=0.0,
    cache_bandwidth=130 * GB,  # effective L3 stencil streaming bandwidth
    cache_bytes=30 * 2**20,  # 30 MiB L3
    #: column-blocked vertical solvers stride through memory; the paper
    #: notes they "typically do not perform well in the FORTRAN FV3
    #: column-blocking schedule" (Sec. VIII-B)
    uncoalesced_fraction=0.45,
)

#: NVIDIA Tesla P100 (Piz Daint). 501.1 GB/s peak, 489.83 GiB/s measured
#: copy stencil; 4.7 TFLOP/s double precision.
P100 = MachineModel(
    name="NVIDIA Tesla P100",
    kind="gpu",
    peak_bandwidth=501.1 * GB,
    achievable_fraction=(489.83 * GiB) / (501.1 * GB),
    peak_flops=4.7e12,
    launch_overhead=6.0 * US,
    saturation_threads=60_000,  # occupancy ramp calibrated on Table II
    cache_bandwidth=1.5e12,  # L2
    # K-innermost default schedules still partially coalesce through the
    # L2 on Pascal; calibrated so the untuned backend lands near the
    # paper's 1.5x-over-FORTRAN default (Table III)
    uncoalesced_fraction=0.55,
)

#: NVIDIA Tesla A100 (JUWELS Booster). Memory bandwidth 2.83× the P100
#: (Sec. IX-B); 9.7 TFLOP/s DP, larger L2, more SMs.
A100 = MachineModel(
    name="NVIDIA Tesla A100",
    kind="gpu",
    peak_bandwidth=2.83 * 501.1 * GB,
    achievable_fraction=(489.83 * GiB) / (501.1 * GB),
    peak_flops=9.7e12,
    launch_overhead=4.0 * US,
    saturation_threads=120_000,
    cache_bandwidth=4.0e12,
)


@dataclasses.dataclass(frozen=True)
class NetworkModel:
    """LogGP-style point-to-point network model."""

    name: str
    latency: float  # s per message
    bandwidth: float  # B/s per link
    overlap_fraction: float = 0.8  # nonblocking overlap with compute

    def halo_exchange_time(self, messages) -> float:
        """Time for a set of concurrent nonblocking messages.

        ``messages`` is an iterable of byte counts sent by one rank; links
        are full duplex and messages to distinct neighbors proceed in
        parallel, so the cost is the largest single message plus one
        latency per posted message (software overhead).
        """
        messages = list(messages)
        if not messages:
            return 0.0
        largest = max(messages)
        return self.latency * len(messages) + largest / self.bandwidth


#: Cray Aries (Piz Daint): ~1.3 µs latency, ~10 GB/s effective per-link
#: point-to-point bandwidth.
ARIES = NetworkModel(name="Cray Aries", latency=1.3 * US, bandwidth=10.0 * GB)


@dataclasses.dataclass(frozen=True)
class NodeModel:
    """A full compute node: processor + network."""

    name: str
    processor: MachineModel
    network: NetworkModel


PIZ_DAINT_GPU = NodeModel("Piz Daint XC50 (P100)", P100, ARIES)
PIZ_DAINT_CPU = NodeModel("Piz Daint XC50 (Haswell)", HASWELL, ARIES)
JUWELS_BOOSTER = NodeModel(
    "JUWELS Booster (A100)",
    A100,
    NetworkModel(name="InfiniBand HDR", latency=1.0 * US, bandwidth=25.0 * GB),
)
