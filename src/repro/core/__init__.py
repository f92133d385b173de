"""The paper's optimization methodology (Sec. VI, Fig. 7).

- :mod:`repro.machine` — machine models of the paper's testbeds
  (Piz Daint XC50: Haswell + P100; JUWELS Booster: A100; Aries network).
- :mod:`repro.core.perfmodel` — memory-bandwidth-bound performance model
  over expanded SDFGs (the Fig. 10 analysis).
- :mod:`repro.core.heuristics` — initial schedule heuristics (Sec. VI-A).
- :mod:`repro.core.autotune` — exhaustive cutout tuning (Sec. VI-B).
- :mod:`repro.core.transfer` — transfer tuning: pattern extraction and
  re-application (Sec. VI-B).
- :mod:`repro.core.pipeline` — the full optimization cycle (Table III).
"""

from repro.machine import (
    A100,
    ARIES,
    HASWELL,
    P100,
    MachineModel,
    NetworkModel,
)
from repro.core.perfmodel import (
    KernelPerf,
    bound_report,
    model_kernel_time,
    model_sdfg_time,
)

__all__ = [
    "A100",
    "ARIES",
    "HASWELL",
    "P100",
    "KernelPerf",
    "MachineModel",
    "NetworkModel",
    "bound_report",
    "model_kernel_time",
    "model_sdfg_time",
]
