"""Ablations of the paper's design choices.

Each knob the toolchain exposes (Sec. V-A / VI-A) is toggled in isolation
on representative modules and its modeled effect reported:

- interval fusion in vertical solvers (the default expansion strategy),
- horizontal-region strategy (predicated vs split),
- OTF fusion (memory traffic vs recomputation),
- schedule iteration order (coalescing).
"""

import numpy as np
import pytest

from repro.machine import P100
from repro.core.perfmodel import model_sdfg_time
from repro.core.heuristics import apply_schedule_heuristics
from repro.dsl import (
    Field,
    FORWARD,
    PARALLEL,
    computation,
    horizontal,
    i_start,
    interval,
    region,
    stencil,
)
from repro.sdfg import SDFG
from repro.sdfg.nodes import KernelSchedule, StencilComputation
from repro.sdfg.transformations import OTFMapFusion, RegionSplit, apply_exhaustively

SHAPE = (192, 192, 80)


@stencil
def _tridiag_like(a: Field, b: Field, x: Field):
    with computation(FORWARD):
        with interval(0, 1):
            g = a / b
            x = g
        with interval(1, None):
            g = a / (b - g[0, 0, -1])
            x = (a + x[0, 0, -1]) / (b - g[0, 0, -1])
    with computation(FORWARD):
        with interval(0, 1):
            w = x
        with interval(1, None):
            w = w[0, 0, -1] * 0.5 + x


def _vertical_sdfg(fuse_intervals: bool):
    sdfg = SDFG("v")
    for name in ("a", "b", "x"):
        sdfg.add_array(name, SHAPE)
    node = StencilComputation(
        _tridiag_like.definition, _tridiag_like.extents,
        mapping={"a": "a", "b": "b", "x": "x"},
        domain=SHAPE, origin=(0, 0, 0),
    )
    node.schedule = KernelSchedule(fuse_intervals=fuse_intervals)
    sdfg.add_state("s0").add(node)
    sdfg.expand_library_nodes()
    apply_schedule_heuristics(sdfg, P100)
    return sdfg


def test_ablation_interval_fusion(report, benchmark):
    """Default expansion fuses consecutive intervals into one kernel,
    avoiding flushes of cached values between loops (Sec. VI-A1)."""
    fused = benchmark.pedantic(
        lambda: _vertical_sdfg(True), rounds=1, iterations=1
    )
    split = _vertical_sdfg(False)
    t_fused = model_sdfg_time(fused, P100)
    t_split = model_sdfg_time(split, P100)
    report("Ablation — interval fusion in vertical solvers")
    report(f"  kernels: fused={len(fused.all_kernels())} "
           f"split={len(split.all_kernels())}")
    report(f"  modeled time: fused={t_fused*1e3:.3f} ms "
           f"split={t_split*1e3:.3f} ms ({t_split/t_fused:.2f}x)")
    assert len(split.all_kernels()) > len(fused.all_kernels())
    assert t_fused <= t_split


@stencil
def _edge_correct(v: Field, flux: Field, dt2: float):
    with computation(PARALLEL), interval(...):
        flux = dt2 * (v - v[0, 0, 0] * 0.5)
        with horizontal(region[i_start, :]):
            flux = dt2 * v


def test_ablation_region_strategy(report, benchmark):
    """Predicated full-domain maps waste nearly a domain's worth of
    traffic per edge statement; splitting trades it for extra launches
    (Table III: 5.35 → 4.82 s)."""
    def build():
        sdfg = SDFG("r")
        sdfg.add_array("v", SHAPE)
        sdfg.add_array("flux", SHAPE)
        sdfg.add_state("s0").add(StencilComputation(
            _edge_correct.definition, _edge_correct.extents,
            mapping={"v": "v", "flux": "flux"},
            domain=SHAPE, origin=(0, 0, 0),
            scalar_mapping={"dt2": "dt2"},
        ))
        sdfg.expand_library_nodes()
        apply_schedule_heuristics(sdfg, P100)
        return sdfg

    predicated = benchmark.pedantic(build, rounds=1, iterations=1)
    split = build()
    apply_exhaustively(split, [RegionSplit()])
    t_pred = model_sdfg_time(predicated, P100)
    t_split = model_sdfg_time(split, P100)
    report("Ablation — horizontal regions: predicated vs split")
    report(f"  predicated {t_pred*1e6:.1f} us, split {t_split*1e6:.1f} us "
           f"({t_pred/t_split:.2f}x)")
    assert t_split < t_pred
    (kern,) = split.all_kernels()
    assert kern.launch_count() > 1  # the split costs extra launches


@stencil
def _produce(x: Field, t: Field):
    with computation(PARALLEL), interval(...):
        t = x * 2.0 + 1.0


@stencil
def _consume5(t: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = (
            t[-1, 0, 0] + t[1, 0, 0] + t[0, -1, 0] + t[0, 1, 0] - 4.0 * t
        )


def test_ablation_otf_recompute_tradeoff(report, benchmark):
    """OTF fusion trades memory traffic for recomputation (Sec. VI-B):
    bytes drop, flops rise — a win for memory-bound stencils."""
    def build():
        sdfg = SDFG("o")
        shape = (194, 194, 80)
        sdfg.add_array("x", shape)
        sdfg.add_array("out", shape)
        sdfg.add_transient("t", shape)
        state = sdfg.add_state("s0")
        state.add(StencilComputation(
            _produce.definition, _produce.extents,
            mapping={"x": "x", "t": "t"}, domain=(194, 194, 80),
            origin=(0, 0, 0),
        ))
        state.add(StencilComputation(
            _consume5.definition, _consume5.extents,
            mapping={"t": "t", "out": "out"}, domain=(192, 192, 80),
            origin=(1, 1, 0),
        ))
        sdfg.expand_library_nodes()
        apply_schedule_heuristics(sdfg, P100)
        return sdfg

    from repro.sdfg.analysis import total_bytes, total_flops

    plain = benchmark.pedantic(build, rounds=1, iterations=1)
    fused = build()
    assert OTFMapFusion().apply_first(fused)
    report("Ablation — OTF fusion: memory vs recomputation")
    report(f"  bytes: {total_bytes(plain)/1e6:.1f} MB → "
           f"{total_bytes(fused)/1e6:.1f} MB")
    report(f"  flops: {total_flops(plain)/1e6:.1f} M → "
           f"{total_flops(fused)/1e6:.1f} M")
    t_plain = model_sdfg_time(plain, P100)
    t_fused = model_sdfg_time(fused, P100)
    report(f"  modeled time: {t_plain*1e3:.3f} ms → {t_fused*1e3:.3f} ms")
    assert total_bytes(fused) < total_bytes(plain)
    assert total_flops(fused) > total_flops(plain)
    assert t_fused < t_plain  # memory-bound: the trade pays off


def test_ablation_iteration_order(report, benchmark):
    """The layout sweep's schedules vs the naive default (Sec. VI-A4)."""
    from repro.core.perfmodel import coalescing_factor

    def build():
        sdfg = SDFG("s")
        sdfg.add_array("x", SHAPE)
        sdfg.add_array("t", SHAPE)
        sdfg.add_state("s0").add(StencilComputation(
            _produce.definition, _produce.extents,
            mapping={"x": "x", "t": "t"}, domain=SHAPE, origin=(0, 0, 0),
        ))
        sdfg.expand_library_nodes()
        return sdfg

    naive = benchmark.pedantic(build, rounds=1, iterations=1)
    tuned = build()
    apply_schedule_heuristics(tuned, P100)
    (k_naive,) = naive.all_kernels()
    (k_tuned,) = tuned.all_kernels()
    t_naive = model_sdfg_time(naive, P100)
    t_tuned = model_sdfg_time(tuned, P100)
    report("Ablation — iteration order (coalescing)")
    report(f"  naive {k_naive.schedule.iteration_order} "
           f"(coalescing {coalescing_factor(k_naive, P100):.2f}): "
           f"{t_naive*1e3:.3f} ms")
    report(f"  tuned {k_tuned.schedule.iteration_order} "
           f"(coalescing {coalescing_factor(k_tuned, P100):.2f}): "
           f"{t_tuned*1e3:.3f} ms")
    assert t_tuned < t_naive
