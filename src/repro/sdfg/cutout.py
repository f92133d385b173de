"""Cutout extraction: standalone sub-SDFGs for auto-tuning.

Transfer tuning "divides the SDFG of the full program into a set of
'cutout' subgraphs, each of which is tuned individually" (Sec. VI-B). A
cutout packages a contiguous slice of one state's kernels with exactly the
containers they touch, can synthesize random inputs, and can be timed and
transformed in isolation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sdfg.graph import SDFG, SDFGState
from repro.sdfg.nodes import Kernel


@dataclasses.dataclass
class Cutout:
    """A standalone sub-SDFG plus the container names it consumes/produces."""

    sdfg: SDFG
    inputs: List[str]
    outputs: List[str]
    source_state: str

    def synthesize_arrays(self, seed: int = 0) -> Dict[str, np.ndarray]:
        """Random input data (and zeroed outputs) for timing/validation."""
        rng = np.random.default_rng(seed)
        arrays = {}
        for name, desc in self.sdfg.arrays.items():
            if desc.transient:
                continue
            if name in self.inputs:
                arrays[name] = 0.5 + rng.random(desc.shape).astype(desc.dtype)
            else:
                arrays[name] = np.zeros(desc.shape, dtype=desc.dtype)
        return arrays

    def kernels(self) -> List[Kernel]:
        return self.sdfg.all_kernels()


def state_cutouts(sdfg, max_kernels: Optional[int] = None) -> List[Cutout]:
    """One cutout per state containing at least two kernels.

    Matches the paper's FVT case study where "the cutouts are its 127 SDFG
    states" and configurations are weakly-connected subgraphs with at least
    two maps.
    """
    out = []
    for state in sdfg.states:
        if len(state.kernels) < 2:
            continue
        if max_kernels is not None and len(state.kernels) > max_kernels:
            continue
        out.append(cutout_from_nodes(sdfg, state, state.kernels))
    return out


def cutout_from_nodes(sdfg, state: SDFGState, kernels: List[Kernel]) -> Cutout:
    """Extract the given kernels of one state into a standalone SDFG."""
    cut = SDFG(f"cutout_{state.name}")
    copied = [k.copy() for k in kernels]
    cstate = cut.add_state(state.name)
    for k in copied:
        cstate.add(k)

    # a transient some node outside the cutout also touches (module
    # scratch reused from state to state) is an output here: the whole
    # graph could not fuse it away either
    inside = {id(k) for k in kernels}
    shared = {
        name
        for users in (sdfg.container_readers(), sdfg.container_writers())
        for name, nodes in users.items()
        if any(id(node) not in inside for _, node in nodes)
    }
    written: set = set()
    inputs: List[str] = []
    outputs: List[str] = []
    for k in copied:
        reads, writes = state.node_reads_writes(k)
        for name in reads:
            desc = sdfg.arrays[name]
            # read before any in-cutout write: a genuine input
            cut.add_array(name, desc.shape, desc.dtype, desc.axes,
                          transient=name in written and desc.transient
                          and name not in shared)
            if name not in written and name not in inputs:
                inputs.append(name)
        for name in writes:
            desc = sdfg.arrays[name]
            # containers produced and consumed inside the cutout keep
            # their transient flag so fusion transformations remain
            # applicable during tuning
            transient = desc.transient and name not in inputs \
                and name not in shared
            cut.add_array(name, desc.shape, desc.dtype, desc.axes,
                          transient=transient)
            written.add(name)
            if name not in outputs and not transient:
                outputs.append(name)
    return Cutout(cut, inputs, outputs, state.name)


def time_cutout(
    cutout: Cutout,
    repetitions: int = 3,
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> float:
    """Median wall-clock seconds of one cutout execution."""
    import time

    from repro.runtime.compile_cache import get_or_compile

    # tuning replays transformation sequences onto fresh SDFG copies, so
    # identical candidates recur constantly — the content-hash cache turns
    # those recompiles into lookups
    program = get_or_compile(cutout.sdfg)
    data = arrays if arrays is not None else cutout.synthesize_arrays()
    scalars = _default_scalars(cutout.sdfg)
    program(arrays=data, scalars=scalars)  # warm-up / compile
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        program(arrays=data, scalars=scalars)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _default_scalars(sdfg) -> Dict[str, float]:
    """Neutral scalar values for timing runs (value does not affect cost)."""
    from repro.dsl.ir import ScalarRef, walk_expr

    names = set()
    for kernel in sdfg.all_kernels():
        for stmt, _ in kernel.statements():
            exprs = [stmt.value] + ([stmt.mask] if stmt.mask is not None else [])
            for e in exprs:
                for node in walk_expr(e):
                    if isinstance(node, ScalarRef):
                        names.add(node.name)
    return {n: 1.0 for n in names}
