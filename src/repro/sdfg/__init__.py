"""Data-centric IR (Stateful Dataflow Multigraphs) and optimizations.

A structural reproduction of the DaCe SDFG described in Sec. III-B: data
containers and data movement (memlets) are explicit and separate from
computation; stencils enter the graph as *library nodes* and are expanded
into map-scoped kernels whose schedules can be mutated by graph-rewriting
transformations without touching user code.
"""

import importlib

from repro.sdfg.nodes import (
    AccessNode,
    Callback,
    Kernel,
    KernelSchedule,
    StencilComputation,
    Tasklet,
)

#: the graph's classes → the module that defines them, imported when
#: asked: a process that restores its programs never builds a graph
_LAZY = {
    "SDFG": "repro.sdfg.graph",
    "InterstateEdge": "repro.sdfg.graph",
    "SDFGState": "repro.sdfg.graph",
    "Memlet": "repro.sdfg.memlet",
    "Range": "repro.sdfg.subsets",
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SDFG",
    "AccessNode",
    "Callback",
    "InterstateEdge",
    "Kernel",
    "KernelSchedule",
    "Memlet",
    "Range",
    "SDFGState",
    "StencilComputation",
    "Tasklet",
]
