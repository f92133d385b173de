"""Data-centric graph-rewriting transformations (Sec. III-B, VI).

Each transformation is a pattern: it enumerates match candidates on a
state, checks legality, and rewrites kernels in place. The dataflow view
is derived from kernel contents, so no manual edge rewiring is needed.
"""

from repro.sdfg.transformations.base import (
    Transformation,
    apply_exhaustively,
    global_program_order,
)
from repro.sdfg.transformations.dead_code import DeadKernelElimination
from repro.sdfg.transformations.local_storage import LocalStorage
from repro.sdfg.transformations.otf_fusion import OTFMapFusion
from repro.sdfg.transformations.power_expansion import PowerExpansion
from repro.sdfg.transformations.region_split import RegionSplit
from repro.sdfg.transformations.subgraph_fusion import SubgraphFusion

__all__ = [
    "DeadKernelElimination",
    "LocalStorage",
    "OTFMapFusion",
    "PowerExpansion",
    "RegionSplit",
    "SubgraphFusion",
    "Transformation",
    "apply_exhaustively",
    "global_program_order",
]
