"""Transformation tests: every rewrite must preserve program outputs."""

import numpy as np
import pytest

from repro.dsl import Field, PARALLEL, FORWARD, computation, interval, stencil
from repro.sdfg import SDFG
from repro.sdfg.codegen import compile_sdfg
from repro.sdfg.nodes import StencilComputation
from repro.sdfg.transformations import (
    DeadKernelElimination,
    LocalStorage,
    OTFMapFusion,
    PowerExpansion,
    SubgraphFusion,
    apply_exhaustively,
)
from repro.sdfg.analysis import total_bytes


def _rand(shape, seed=0):
    return np.random.default_rng(seed).random(shape)


@stencil
def _double(a: Field, t: Field):
    with computation(PARALLEL), interval(...):
        t = a * 2.0


@stencil
def _shift_add(t: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = t[-1, 0, 0] + t[1, 0, 0]


@stencil
def _incr(a: Field, b: Field):
    with computation(PARALLEL), interval(...):
        b = a + 1.0


def _two_stencil_sdfg(shape=(10, 8, 4), domain=(8, 6, 4), origin=(1, 1, 0)):
    """producer (a -> t, transient) then consumer (t -> out).

    The producer runs on a domain extended by one point in i so that it
    covers the consumer's ±1 reads of t (as the FV3 modules do when calling
    stencils on extended compute domains).
    """
    sdfg = SDFG("prog")
    sdfg.add_array("a", shape)
    sdfg.add_array("out", shape)
    sdfg.add_transient("t", shape)
    state = sdfg.add_state("s0")
    prod_origin = (origin[0] - 1, origin[1], origin[2])
    prod_domain = (domain[0] + 2, domain[1], domain[2])
    state.add(
        StencilComputation(
            _double.definition, _double.extents,
            mapping={"a": "a", "t": "t"},
            domain=prod_domain, origin=prod_origin,
        )
    )
    state.add(
        StencilComputation(
            _shift_add.definition, _shift_add.extents,
            mapping={"t": "t", "out": "out"}, domain=domain, origin=origin,
        )
    )
    sdfg.expand_library_nodes()
    return sdfg


def _run(sdfg, arrays, scalars=None):
    data = {k: v.copy() for k, v in arrays.items()}
    compile_sdfg(sdfg)(arrays=data, scalars=scalars or {})
    return data


def test_otf_fusion_preserves_output_and_removes_transient():
    sdfg = _two_stencil_sdfg()
    arrays = {"a": _rand((10, 8, 4)), "out": np.zeros((10, 8, 4))}
    ref = _run(sdfg, arrays)

    sdfg2 = _two_stencil_sdfg()
    xf = OTFMapFusion()
    assert xf.apply_first(sdfg2)
    assert "t" not in sdfg2.arrays
    assert len(sdfg2.states[0].kernels) == 1
    got = _run(sdfg2, arrays)
    np.testing.assert_array_equal(ref["out"], got["out"])


def test_otf_fusion_reduces_modeled_bytes():
    before = _two_stencil_sdfg()
    after = _two_stencil_sdfg()
    OTFMapFusion().apply_first(after)
    assert total_bytes(after) < total_bytes(before)


def test_otf_fusion_refuses_nontransient_target():
    sdfg = SDFG("prog")
    shape, domain, origin = (10, 8, 4), (8, 6, 4), (1, 1, 0)
    sdfg.add_array("a", shape)
    sdfg.add_array("t", shape)  # NOT transient: externally visible
    sdfg.add_array("out", shape)
    state = sdfg.add_state("s0")
    state.add(StencilComputation(_double.definition, _double.extents,
                                 mapping={"a": "a", "t": "t"},
                                 domain=domain, origin=origin))
    state.add(StencilComputation(_shift_add.definition, _shift_add.extents,
                                 mapping={"t": "t", "out": "out"},
                                 domain=domain, origin=origin))
    sdfg.expand_library_nodes()
    assert not OTFMapFusion().apply_first(sdfg)


def test_subgraph_fusion_independent_kernels():
    sdfg = SDFG("prog")
    shape, domain, origin = (8, 8, 3), (6, 6, 3), (1, 1, 0)
    for name in ("a", "b", "x", "y"):
        sdfg.add_array(name, shape)
    state = sdfg.add_state("s0")
    state.add(StencilComputation(_incr.definition, _incr.extents,
                                 mapping={"a": "a", "b": "x"},
                                 domain=domain, origin=origin))
    state.add(StencilComputation(_incr.definition, _incr.extents,
                                 mapping={"a": "b", "b": "y"},
                                 domain=domain, origin=origin))
    sdfg.expand_library_nodes()
    arrays = {n: _rand(shape, i) for i, n in enumerate(("a", "b"))}
    arrays.update({"x": np.zeros(shape), "y": np.zeros(shape)})
    ref = _run(sdfg, arrays)

    assert SubgraphFusion().apply_first(sdfg)
    assert len(sdfg.states[0].kernels) == 1
    kern = sdfg.states[0].kernels[0]
    assert len(kern.constituents) == 2
    got = _run(sdfg, arrays)
    for n in ("x", "y"):
        np.testing.assert_array_equal(ref[n], got[n])


def test_subgraph_fusion_rejects_offset_dependency():
    # consumer reads producer output at ±1: thread-level fusion illegal
    sdfg = _two_stencil_sdfg()
    assert not SubgraphFusion().apply_first(sdfg)


def test_subgraph_fusion_allows_zero_offset_dependency():
    sdfg = SDFG("prog")
    shape, domain, origin = (8, 8, 3), (6, 6, 3), (1, 1, 0)
    for name in ("a", "m", "out"):
        sdfg.add_array(name, shape)
    state = sdfg.add_state("s0")
    state.add(StencilComputation(_incr.definition, _incr.extents,
                                 mapping={"a": "a", "b": "m"},
                                 domain=domain, origin=origin))
    state.add(StencilComputation(_incr.definition, _incr.extents,
                                 mapping={"a": "m", "b": "out"},
                                 domain=domain, origin=origin))
    sdfg.expand_library_nodes()
    arrays = {"a": _rand(shape), "m": np.zeros(shape), "out": np.zeros(shape)}
    ref = _run(sdfg, arrays)
    assert SubgraphFusion().apply_first(sdfg)
    got = _run(sdfg, arrays)
    np.testing.assert_array_equal(ref["out"], got["out"])


def test_subgraph_fusion_keeps_a_kernel_after_the_tasklet_it_reads():
    """The shape of ``DGridSolver.momentum``: a kernel reading a scalar a
    tasklet computes is not hoisted above the tasklet to fuse with a
    kernel before it."""
    from repro.sdfg.nodes import Tasklet

    @stencil
    def scale(a: Field, b: Field, s: float):
        with computation(PARALLEL), interval(...):
            b = a * s

    sdfg = SDFG("prog")
    shape, domain, origin = (8, 8, 3), (6, 6, 3), (1, 1, 0)
    for name in ("a", "m", "out"):
        sdfg.add_array(name, shape)
    state = sdfg.add_state("s0")
    state.add(StencilComputation(_incr.definition, _incr.extents,
                                 mapping={"a": "a", "b": "m"},
                                 domain=domain, origin=origin))
    state.add(Tasklet("tasklet_s", "dt * 0.2", ("dt",), "s"))
    state.add(StencilComputation(scale.definition, scale.extents,
                                 mapping={"a": "a", "b": "out"},
                                 domain=domain, origin=origin,
                                 scalar_mapping={"s": "s"}))
    sdfg.expand_library_nodes()
    arrays = {"a": _rand(shape), "m": np.zeros(shape), "out": np.zeros(shape)}
    ref = _run(sdfg, arrays, scalars={"dt": 2.0})
    assert not SubgraphFusion().apply_first(sdfg)
    got = _run(sdfg, arrays, scalars={"dt": 2.0})
    np.testing.assert_array_equal(ref["out"], got["out"])


def test_dead_kernel_elimination():
    sdfg = SDFG("prog")
    shape, domain, origin = (8, 8, 3), (6, 6, 3), (1, 1, 0)
    sdfg.add_array("a", shape)
    sdfg.add_array("out", shape)
    sdfg.add_transient("unused", shape)
    state = sdfg.add_state("s0")
    state.add(StencilComputation(_incr.definition, _incr.extents,
                                 mapping={"a": "a", "b": "unused"},
                                 domain=domain, origin=origin))
    state.add(StencilComputation(_incr.definition, _incr.extents,
                                 mapping={"a": "a", "b": "out"},
                                 domain=domain, origin=origin))
    sdfg.expand_library_nodes()
    assert DeadKernelElimination().apply_first(sdfg)
    assert len(sdfg.states[0].kernels) == 1
    assert "unused" not in sdfg.arrays


def test_power_expansion_rewrites_and_preserves():
    @stencil
    def smag(delpc: Field, vort: Field, dt: float):
        with computation(PARALLEL), interval(...):
            vort = dt * (delpc**2.0 + vort**2.0) ** 0.5

    shape, domain, origin = (6, 6, 3), (6, 6, 3), (0, 0, 0)
    sdfg = SDFG("prog")
    sdfg.add_array("delpc", shape)
    sdfg.add_array("vort", shape)
    state = sdfg.add_state("s0")
    state.add(StencilComputation(
        smag.definition, smag.extents,
        mapping={"delpc": "delpc", "vort": "vort"},
        domain=domain, origin=origin,
        scalar_mapping={"dt": "dt"},
    ))
    sdfg.expand_library_nodes()
    arrays = {"delpc": _rand(shape), "vort": _rand(shape, 1)}
    ref = _run(sdfg, arrays, scalars={"dt": 0.1})

    flops_before = sdfg.all_kernels()[0].flops()
    assert PowerExpansion().apply_first(sdfg)
    flops_after = sdfg.all_kernels()[0].flops()
    assert flops_after < flops_before
    # no power operator remains
    src = compile_sdfg(sdfg).source
    assert "**" not in src
    assert "np.sqrt" in src
    got = _run(sdfg, arrays, scalars={"dt": 0.1})
    np.testing.assert_allclose(ref["vort"], got["vort"], rtol=1e-14)


def test_local_storage_marks_vertical_solver_fields():
    @stencil
    def fwd(a: Field, out: Field):
        with computation(FORWARD):
            with interval(0, 1):
                out = a
            with interval(1, None):
                out = out[0, 0, -1] * 0.5 + a + a

    shape = (4, 4, 6)
    sdfg = SDFG("prog")
    sdfg.add_array("a", shape)
    sdfg.add_array("out", shape)
    state = sdfg.add_state("s0")
    state.add(StencilComputation(fwd.definition, fwd.extents,
                                 mapping={"a": "a", "out": "out"},
                                 domain=shape, origin=(0, 0, 0)))
    sdfg.expand_library_nodes()
    kern = sdfg.all_kernels()[0]
    excess_before = kern.excess_access_bytes(sdfg)
    assert excess_before > 0
    applied = apply_exhaustively(sdfg, [LocalStorage()])
    assert applied >= 1
    assert kern.schedule.cached_fields  # something got cached
    assert kern.excess_access_bytes(sdfg) < excess_before


def test_apply_exhaustively_reaches_fixpoint():
    sdfg = _two_stencil_sdfg()
    n = apply_exhaustively(sdfg, [OTFMapFusion(), DeadKernelElimination()])
    assert n == 1  # one OTF fusion, then nothing else applies
    assert len(sdfg.states[0].kernels) == 1


def test_validation_passes_on_transformed_graph():
    sdfg = _two_stencil_sdfg()
    apply_exhaustively(sdfg, [OTFMapFusion()])
    sdfg.validate()


# ---------------------------------------------------------------------------
# Fusion legality guards
# ---------------------------------------------------------------------------

def test_otf_fusion_skips_interval_deactivated_consumer_read():
    # the consumer's only read of t sits in an interval that resolves
    # empty for this K size: there is no dataflow to fuse over, and
    # can_apply must say so instead of raising
    @stencil
    def _cold_read(t: Field, out: Field):
        with computation(PARALLEL):
            with interval(0, 3):
                out = 1.0
            with interval(3, None):
                out = t  # never executes when nk == 3

    shape, domain, origin = (8, 8, 3), (6, 6, 3), (1, 1, 0)
    sdfg = SDFG("prog")
    sdfg.add_array("a", shape)
    sdfg.add_array("out", shape)
    sdfg.add_transient("t", shape)
    state = sdfg.add_state("s0")
    state.add(StencilComputation(_double.definition, _double.extents,
                                 mapping={"a": "a", "t": "t"},
                                 domain=domain, origin=origin))
    state.add(StencilComputation(_cold_read.definition, _cold_read.extents,
                                 mapping={"t": "t", "out": "out"},
                                 domain=domain, origin=origin))
    sdfg.expand_library_nodes()
    xf = OTFMapFusion()
    (candidate,) = xf.candidates(sdfg, sdfg.states[0])
    assert not xf.can_apply(sdfg, sdfg.states[0], candidate)
    assert not xf.apply_first(sdfg)


def test_otf_fusion_refuses_disjoint_producer_write():
    # producer writes only the lower K levels of t, consumer reads only
    # the upper ones: the subsets are disjoint, so inlining the producer
    # expression would fabricate values the producer never computed
    @stencil
    def _low_write(a: Field, t: Field):
        with computation(PARALLEL), interval(0, 1):
            t = a * 2.0

    @stencil
    def _high_read(t: Field, out: Field):
        with computation(PARALLEL), interval(1, None):
            out = t

    shape, domain, origin = (8, 8, 3), (6, 6, 3), (1, 1, 0)
    sdfg = SDFG("prog")
    sdfg.add_array("a", shape)
    sdfg.add_array("out", shape)
    sdfg.add_transient("t", shape)
    state = sdfg.add_state("s0")
    state.add(StencilComputation(_low_write.definition, _low_write.extents,
                                 mapping={"a": "a", "t": "t"},
                                 domain=domain, origin=origin))
    state.add(StencilComputation(_high_read.definition, _high_read.extents,
                                 mapping={"t": "t", "out": "out"},
                                 domain=domain, origin=origin))
    sdfg.expand_library_nodes()
    assert not OTFMapFusion().apply_first(sdfg)


def test_subgraph_fusion_rejects_write_after_read_hazard():
    # kernel 1 reads t at +/-1, kernel 2 overwrites t: inside one map
    # scope a neighbouring thread's write races the offset read (WAR)
    shape, domain, origin = (8, 8, 3), (6, 6, 3), (1, 1, 0)
    sdfg = SDFG("prog")
    sdfg.add_array("a", shape)
    sdfg.add_array("t", shape)
    sdfg.add_array("out", shape)
    state = sdfg.add_state("s0")
    state.add(StencilComputation(_shift_add.definition, _shift_add.extents,
                                 mapping={"t": "t", "out": "out"},
                                 domain=domain, origin=origin))
    state.add(StencilComputation(_double.definition, _double.extents,
                                 mapping={"a": "a", "t": "t"},
                                 domain=domain, origin=origin))
    sdfg.expand_library_nodes()
    assert not SubgraphFusion().apply_first(sdfg)


def test_subgraph_fusion_allows_disjoint_offset_ranges():
    # the reader touches x at a K offset, but only levels the writer
    # provably never writes (Range.intersection is None): no dependency,
    # fusion is legal and must now be accepted
    @stencil
    def _low_half_write(a: Field, x: Field):
        with computation(PARALLEL), interval(0, 2):
            x = a * 2.0

    @stencil
    def _high_shift_read(x: Field, out: Field):
        with computation(PARALLEL), interval(0, 2):
            out = x[0, 0, 2]

    shape, domain, origin = (8, 8, 4), (6, 6, 4), (1, 1, 0)

    def build():
        sdfg = SDFG("prog")
        sdfg.add_array("a", shape)
        sdfg.add_array("x", shape)
        sdfg.add_array("out", shape)
        state = sdfg.add_state("s0")
        state.add(StencilComputation(
            _low_half_write.definition, _low_half_write.extents,
            mapping={"a": "a", "x": "x"}, domain=domain, origin=origin))
        state.add(StencilComputation(
            _high_shift_read.definition, _high_shift_read.extents,
            mapping={"x": "x", "out": "out"}, domain=domain, origin=origin))
        sdfg.expand_library_nodes()
        return sdfg

    arrays = {
        "a": _rand(shape),
        "x": _rand(shape, 1),
        "out": np.zeros(shape),
    }
    ref = _run(build(), arrays)

    fused = build()
    assert SubgraphFusion().apply_first(fused)
    assert len(fused.states[0].kernels) == 1
    fused.validate()
    got = _run(fused, arrays)
    for n in ("x", "out"):
        np.testing.assert_array_equal(ref[n], got[n])
