"""Derived per-stencil metrics: data-movement estimates and rooflines.

The traffic estimate follows the paper's bandwidth-bound model
(Sec. VI-C): every element of every accessed field is counted **once**
over its extended access footprint, even when the stencil touches it
several times — caches serve the repeats. Combined with a span's wall
time this yields achieved GB/s, and against a
:class:`~repro.machine.MachineModel` the fraction of the roofline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:
    from repro.machine import MachineModel

__all__ = [
    "observed_machine",
    "observed_machine_name",
    "stencil_traffic_bytes",
]

#: the roofline machine's name: what a compiled plan's key carries, known
#: without loading the machine models (``tests/test_imports.py`` holds it
#: to ``HASWELL.name``)
_DEFAULT_NAME = "Xeon E5-2690 v3 (Haswell)"


def observed_machine() -> "MachineModel":
    """Machine model used as the roofline reference in reports and by the
    compiled lowering's tiling: a fixed model (the paper's Haswell), not
    the CPU this process runs on. Kernel keys and tiles follow from it,
    so it is the same on every host."""
    from repro.machine import HASWELL

    return HASWELL


def observed_machine_name() -> str:
    """The name of :func:`observed_machine`, which a compiled plan's key
    carries: a primed process keys its plans without the machine models."""
    return _DEFAULT_NAME


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
    local-storage transformation), and the NumPy emission's materialization
    of them is an implementation detail, not modeled traffic.
    """
    from repro.dsl.extents import Extent, k_access_bounds

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
