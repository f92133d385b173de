"""The SDFG container: states, data descriptors and control flow.

States hold compute nodes in program order; the dataflow multigraph
(access nodes + memlet edges) is derived from the nodes' exact access
subsets, so transformations may freely rewrite kernels and the graph view
stays consistent. Control flow is a linear chain of states plus counted
loop regions (the paper's dynamical core unrolls data-dependent control
flow during orchestration, Sec. V-B; kernels inside remaining loops are
"invoked multiple times (≤56) under different settings").
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    Callback,
    Kernel,
    Node,
    StencilComputation,
    Tasklet,
)
from repro.sdfg.subsets import Range


@dataclasses.dataclass
class ArrayDesc:
    """Data-container descriptor."""

    shape: Tuple[int, ...]
    dtype: type = np.float64
    axes: str = "IJK"
    transient: bool = False
    #: a transient the program zero-fills where it is born: a read that
    #: no write covers reads zeros, not the slab's leftovers
    zeroed: bool = False

    @property
    def volume(self) -> int:
        vol = 1
        for s in self.shape:
            vol *= s
        return vol

    @property
    def nbytes(self) -> int:
        return self.volume * np.dtype(self.dtype).itemsize


@dataclasses.dataclass
class InterstateEdge:
    """Edge in the coarse state machine (Fig. 5)."""

    condition: Optional[str] = None
    assignments: Dict[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class LoopRegion:
    """A counted loop over a contiguous range of states [first, last]."""

    first: int
    last: int
    count: int
    label: str = "loop"


class SDFGState:
    """One acyclic dataflow graph: compute nodes in program order."""

    def __init__(self, name: str):
        self.name = name
        self.nodes: List[Node] = []

    def add(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    @property
    def kernels(self) -> List[Kernel]:
        return [n for n in self.nodes if isinstance(n, Kernel)]

    @property
    def library_nodes(self) -> List[StencilComputation]:
        return [n for n in self.nodes if isinstance(n, StencilComputation)]

    def node_reads_writes(self, node: Node) -> Tuple[List[str], List[str]]:
        """Container names read and written by a compute node."""
        if isinstance(node, Kernel):
            return node.read_fields(), node.written_fields()
        if isinstance(node, Tasklet):
            return list(node.inputs), [node.output]
        if isinstance(node, Callback):
            reads = list(node.reads or []) + ["__pystate"]
            writes = list(node.writes or []) + ["__pystate"]
            return reads, writes
        return [], []

    def dataflow_graph(self, sdfg: "SDFG") -> nx.MultiDiGraph:
        """Derive the access-node/memlet multigraph for this state."""
        # imported here: nothing on the run path builds this view, and
        # networkx is a third of `import repro.run`
        import networkx as nx

        g = nx.MultiDiGraph()
        latest: Dict[str, AccessNode] = {}

        def subset_of(node, name, kind) -> Optional[Range]:
            if isinstance(node, Kernel) and name in sdfg.arrays:
                reads, writes = node.access_subsets(
                    lambda n: sdfg.arrays[n].axes
                )
                return (reads if kind == "r" else writes).get(name)
            return None

        for node in self.nodes:
            g.add_node(node)
            reads, writes = self.node_reads_writes(node)
            for name in reads:
                acc = latest.get(name)
                if acc is None:
                    acc = AccessNode(name)
                    latest[name] = acc
                    g.add_node(acc)
                g.add_edge(acc, node, memlet=Memlet(name, subset_of(node, name, "r")))
            for name in writes:
                acc = AccessNode(name)
                g.add_node(acc)
                g.add_edge(
                    node,
                    acc,
                    memlet=Memlet(name, subset_of(node, name, "w"), is_write=True),
                )
                latest[name] = acc
        return g

class SDFG:
    """Stateful dataflow multigraph."""

    def __init__(self, name: str):
        self.name = name
        self.arrays: Dict[str, ArrayDesc] = {}
        self.states: List[SDFGState] = []
        self.loops: List[LoopRegion] = []
        self.scalars: Dict[str, float] = {}
        self.callbacks_enabled = True

    # ---- construction ----------------------------------------------------

    def add_array(
        self,
        name: str,
        shape: Tuple[int, ...],
        dtype=np.float64,
        axes: str = "IJK",
        transient: bool = False,
        zeroed: bool = False,
    ) -> str:
        if name in self.arrays:
            existing = self.arrays[name]
            if existing.shape != tuple(shape):
                raise ValueError(
                    f"container {name!r} redefined with shape {shape} "
                    f"(was {existing.shape})"
                )
            return name
        self.arrays[name] = ArrayDesc(
            tuple(shape), dtype, axes, transient, zeroed
        )
        return name

    def add_transient(self, name: str, shape, dtype=np.float64, axes="IJK") -> str:
        base, n = name, 0
        while name in self.arrays:
            n += 1
            name = f"{base}_{n}"
        return self.add_array(name, shape, dtype, axes, transient=True)

    def add_state(self, name: Optional[str] = None) -> SDFGState:
        state = SDFGState(name or f"state_{len(self.states)}")
        self.states.append(state)
        return state

    def add_loop(self, first: int, last: int, count: int, label="loop") -> LoopRegion:
        region = LoopRegion(first, last, count, label)
        self.loops.append(region)
        return region

    def copy(self) -> "SDFG":
        """Deep-copy kernels, arrays and control flow (tasklets/callbacks
        keep their function references)."""
        dup = SDFG(self.name)
        dup.arrays = {n: dataclasses.replace(d) for n, d in self.arrays.items()}
        dup.loops = [dataclasses.replace(lp) for lp in self.loops]
        dup.scalars = dict(self.scalars)
        for state in self.states:
            new_state = dup.add_state(state.name)
            for node in state.nodes:
                if isinstance(node, Kernel):
                    new_state.add(node.copy())
                else:
                    new_state.add(node)
        return dup

    # ---- queries -----------------------------------------------------------

    def all_nodes(self) -> Iterable[Node]:
        for state in self.states:
            yield from state.nodes

    def all_kernels(self) -> List[Kernel]:
        return [n for n in self.all_nodes() if isinstance(n, Kernel)]

    def kernel_invocations(self) -> Dict[int, int]:
        """Times each state executes, accounting for loop regions."""
        counts = {i: 1 for i in range(len(self.states))}
        for loop in self.loops:
            for i in range(loop.first, loop.last + 1):
                counts[i] *= loop.count
        return counts

    def transients(self) -> List[str]:
        return [n for n, d in self.arrays.items() if d.transient]

    def memory_footprint(self) -> Dict[str, int]:
        """Bytes allocated per container category, and how many
        transients share the ``transient`` bytes."""
        persistent = sum(
            d.nbytes for d in self.arrays.values() if not d.transient
        )
        transients = [d for d in self.arrays.values() if d.transient]
        return {
            "persistent": persistent,
            "transient": sum(d.nbytes for d in transients),
            "transients": len(transients),
        }

    def container_readers(self) -> Dict[str, List[Tuple[SDFGState, Node]]]:
        out: Dict[str, List] = {}
        for state in self.states:
            for node in state.nodes:
                reads, _ = state.node_reads_writes(node)
                for name in reads:
                    out.setdefault(name, []).append((state, node))
        return out

    def container_writers(self) -> Dict[str, List[Tuple[SDFGState, Node]]]:
        out: Dict[str, List] = {}
        for state in self.states:
            for node in state.nodes:
                _, writes = state.node_reads_writes(node)
                for name in writes:
                    out.setdefault(name, []).append((state, node))
        return out

    # ---- statistics (Sec. V: graph size) -----------------------------------

    def stats(self) -> Dict[str, int]:
        n_dataflow = 0
        for state in self.states:
            g = state.dataflow_graph(self)
            n_dataflow += g.number_of_nodes()
        invocations = self.kernel_invocations()
        total_kernel_launches = sum(
            len(state.kernels) * invocations[i]
            for i, state in enumerate(self.states)
        )
        return {
            "states": len(self.states),
            "dataflow_nodes": n_dataflow,
            "unique_kernels": len(self.all_kernels()),
            "kernel_launches_per_step": total_kernel_launches,
            "containers": len(self.arrays),
            "transients": len(self.transients()),
        }

    # ---- passes --------------------------------------------------------------

    def expand_library_nodes(self) -> "SDFG":
        from repro.sdfg.expansion import expand_sdfg

        expand_sdfg(self)
        return self

