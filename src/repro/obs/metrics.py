"""Derived per-stencil metrics: data-movement estimates and rooflines.

The traffic estimate follows the paper's bandwidth-bound model
(Sec. VI-C): every element of every accessed field is counted **once**
over its extended access footprint, even when the stencil touches it
several times — caches serve the repeats. Combined with a span's wall
time this yields achieved GB/s, and against a
:class:`~repro.machine.MachineModel` the fraction of the roofline.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.machine import HASWELL, MachineModel
from repro.dsl.extents import Extent, k_access_bounds

__all__ = [
    "observed_machine",
    "set_observed_machine",
    "stencil_traffic_bytes",
]

_observed: MachineModel = HASWELL


def observed_machine() -> MachineModel:
    """Machine model used as the roofline reference in reports: the CPU
    actually running this reproduction (Haswell) unless
    :func:`set_observed_machine` chose another."""
    return _observed


def set_observed_machine(machine: Optional[MachineModel]) -> None:
    """Set (or with ``None``, reset to the default) the roofline machine
    used by :func:`repro.obs.report`."""
    global _observed
    _observed = machine if machine is not None else HASWELL


def stencil_traffic_bytes(
    stencil_object,
    fields: Dict[str, "object"],
    domain: Tuple[int, int, int],
) -> int:
    """First-touch traffic estimate of one stencil call, in bytes.

    Each field parameter contributes its full access footprint — the
    compute domain extended by the inferred :class:`StencilExtents` halo
    horizontally and by the exact per-interval k-access bounds vertically —
    counted once at the array's element size. Temporaries are excluded:
    in the optimized regime they live in caches/registers (the paper's
    local-storage transformation), and the debug backend's materialization
    of them is an implementation detail, not modeled traffic.
    """
    definition = stencil_object.definition
    extents = stencil_object.extents
    ni, nj, nk = domain
    total = 0
    for p in definition.field_params:
        ext = extents.field_extents.get(p.name, Extent.zero())
        axes = p.field_type.axes
        points = 1
        if "I" in axes:
            points *= ni - ext.i_lo + ext.i_hi
        if "J" in axes:
            points *= nj - ext.j_lo + ext.j_hi
        if "K" in axes:
            kb = k_access_bounds(definition, p.name, nk)
            if kb is None:
                continue  # parameter never accessed: no traffic
            points *= kb[1] - kb[0]
        arr = fields.get(p.name)
        itemsize = getattr(arr, "itemsize", 8)
        total += points * itemsize
    return total
