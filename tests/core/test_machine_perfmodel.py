"""Machine-model and performance-model tests."""

import numpy as np
import pytest

from repro.machine import A100, ARIES, HASWELL, P100, GB, GiB
from repro.core.perfmodel import (
    recompute_pays,
    bound_report,
    coalescing_factor,
    format_bound_report,
    model_kernel_time,
    model_sdfg_time,
    parallel_work,
    peak_time,
)
from repro.dsl import Field, FORWARD, PARALLEL, computation, interval, stencil
from repro.sdfg import SDFG
from repro.sdfg.nodes import StencilComputation


@stencil
def _copy(a: Field, b: Field):
    with computation(PARALLEL), interval(...):
        b = a


@stencil
def _cumsum(a: Field, out: Field):
    with computation(FORWARD):
        with interval(0, 1):
            out = a
        with interval(1, None):
            out = out[0, 0, -1] + a


def _single_kernel_sdfg(stencil_obj, shape, mapping=None):
    sdfg = SDFG("m")
    for p in stencil_obj.definition.field_params:
        sdfg.add_array(p.name, shape)
    state = sdfg.add_state("s0")
    state.add(
        StencilComputation(
            stencil_obj.definition,
            stencil_obj.extents,
            mapping=mapping
            or {p.name: p.name for p in stencil_obj.definition.field_params},
            domain=shape,
            origin=(0, 0, 0),
        )
    )
    sdfg.expand_library_nodes()
    return sdfg


def test_bandwidth_constants_match_paper():
    # Sec. VIII-A: 43.77 GB/s CPU, 501.1 GB/s GPU peak; 40.99 / 489.83 GiB/s
    # achieved; ceiling speedup 11.45x
    assert HASWELL.peak_bandwidth == pytest.approx(43.77 * GB)
    assert P100.peak_bandwidth == pytest.approx(501.1 * GB)
    assert HASWELL.achievable_bandwidth == pytest.approx(40.99 * GiB)
    assert P100.achievable_bandwidth == pytest.approx(489.83 * GiB)
    ratio = P100.peak_bandwidth / HASWELL.peak_bandwidth
    assert ratio == pytest.approx(11.45, abs=0.01)
    assert A100.peak_bandwidth / P100.peak_bandwidth == pytest.approx(2.83)


def test_copy_stencil_peak_time_is_two_transfers():
    shape = (192, 192, 80)
    sdfg = _single_kernel_sdfg(_copy, shape)
    (kern,) = sdfg.all_kernels()
    nbytes = 2 * np.prod(shape) * 8  # one read + one write
    assert kern.moved_bytes(sdfg) == nbytes
    assert peak_time(kern, sdfg, P100) == pytest.approx(
        nbytes / P100.peak_bandwidth
    )


def test_copy_stencil_near_peak_on_saturating_domain():
    # at the target per-node domain the copy stencil must sustain ~97.8% of
    # peak (489.83 GiB / 501.1 GB), i.e. the measured/peak gap of Sec. VIII
    shape = (192, 192, 80)
    sdfg = _single_kernel_sdfg(_copy, shape)
    from repro.core.heuristics import apply_schedule_heuristics

    apply_schedule_heuristics(sdfg, P100)
    (kern,) = sdfg.all_kernels()
    t = model_kernel_time(kern, sdfg, P100)
    utilization = peak_time(kern, sdfg, P100) / t
    assert 0.90 < utilization < 0.985


def test_vertical_solver_exposes_2d_parallelism():
    shape = (128, 128, 80)
    sdfg = _single_kernel_sdfg(_cumsum, shape)
    (kern,) = sdfg.all_kernels()
    assert parallel_work(kern) == 128 * 128
    # GPU occupancy at 2D parallelism is well below saturation
    assert P100.occupancy(parallel_work(kern)) < 0.5
    # ... whereas the 3D copy stencil at the target size saturates
    assert P100.occupancy(192 * 192 * 80) > 0.95


def test_gpu_underutilization_shrinks_with_domain():
    """Table II trend: GT4Py scaling factors below the grid-point ratio."""
    t = {}
    for n in (128, 192, 256, 384):
        sdfg = _single_kernel_sdfg(_cumsum, (n, n, 80))
        from repro.core.heuristics import apply_schedule_heuristics

        apply_schedule_heuristics(sdfg, P100)
        (kern,) = sdfg.all_kernels()
        t[n] = model_kernel_time(kern, sdfg, P100)
    # scaling below ideal: t grows slower than grid points
    assert t[192] / t[128] < (192 / 128) ** 2
    assert t[384] / t[128] < (384 / 128) ** 2
    # and the gap narrows as parallelism saturates
    gap_small = ((192 / 128) ** 2) / (t[192] / t[128])
    gap_large = ((384 / 256) ** 2) / (t[384] / t[256])
    assert gap_large < gap_small


@stencil
def _lap(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = a[-1, 0, 0] + a[1, 0, 0] + a[0, -1, 0] + a[0, 1, 0] - 4.0 * a


def test_cpu_cache_model_superlinear_scaling():
    """Table II trend: FORTRAN times of *reusing* stencils scale worse
    than the domain ratio once slices outgrow the cache."""
    t = {}
    for n in (128, 512):
        shape = (n + 2, n + 2, 80)
        sdfg = SDFG("m")
        sdfg.add_array("a", shape)
        sdfg.add_array("out", shape)
        state = sdfg.add_state("s0")
        state.add(StencilComputation(
            _lap.definition, _lap.extents,
            mapping={"a": "a", "out": "out"},
            domain=(n, n, 80), origin=(1, 1, 0),
        ))
        sdfg.expand_library_nodes()
        (kern,) = sdfg.all_kernels()
        t[n] = model_kernel_time(kern, sdfg, HASWELL)
    assert t[512] / t[128] > (512 / 128) ** 2


def test_cpu_streaming_kernel_runs_at_stream_bandwidth():
    """A pure copy exhibits no reuse: the CPU model must charge STREAM
    bandwidth, not cache bandwidth (Sec. VIII-A measurement)."""
    shape = (192, 192, 80)
    sdfg = _single_kernel_sdfg(_copy, shape)
    (kern,) = sdfg.all_kernels()
    t = model_kernel_time(kern, sdfg, HASWELL)
    bw = kern.moved_bytes(sdfg) / t
    assert bw == pytest.approx(HASWELL.achievable_bandwidth, rel=0.05)


def test_cpu_effective_bandwidth_monotone():
    bw_small = HASWELL.effective_cpu_bandwidth(1 * 2**20)
    bw_large = HASWELL.effective_cpu_bandwidth(512 * 2**20)
    assert bw_small > bw_large
    assert bw_large >= HASWELL.achievable_bandwidth * 0.95


def test_coalescing_penalty_for_naive_schedule():
    shape = (64, 64, 16)
    sdfg = _single_kernel_sdfg(_copy, shape)
    (kern,) = sdfg.all_kernels()
    # default expansion schedule is naive: K innermost → uncoalesced
    assert coalescing_factor(kern, P100) == P100.uncoalesced_fraction
    from repro.core.heuristics import apply_schedule_heuristics

    apply_schedule_heuristics(sdfg, P100)
    assert coalescing_factor(kern, P100) == 1.0


def test_heuristics_recover_paper_schedules():
    from repro.core.heuristics import apply_schedule_heuristics

    shape = (64, 64, 32)
    sdfg = _single_kernel_sdfg(_copy, shape)
    chosen = apply_schedule_heuristics(sdfg, P100)
    assert chosen["horizontal"].iteration_order == (
        "Interval", "Operation", "K", "J", "I",
    )
    sdfg2 = _single_kernel_sdfg(_cumsum, shape)
    chosen2 = apply_schedule_heuristics(sdfg2, P100)
    assert chosen2["vertical"].iteration_order[-1] == "K"
    assert "K" in sdfg2.all_kernels()[0].schedule.loop_dims


def test_model_sdfg_time_accounts_for_loops():
    shape = (32, 32, 8)
    sdfg = _single_kernel_sdfg(_copy, shape)
    t1 = model_sdfg_time(sdfg, P100)
    sdfg.add_loop(0, 0, 5)
    assert model_sdfg_time(sdfg, P100) == pytest.approx(5 * t1)


def test_bound_report_ranks_and_formats():
    shape = (32, 32, 8)
    sdfg = _single_kernel_sdfg(_copy, shape)
    rows = bound_report([sdfg], P100)
    assert len(rows) == 1
    assert 0.0 < rows[0].utilization <= 1.0
    text = format_bound_report(rows)
    assert "% peak" in text and "_copy" in text


def test_recompute_pays_below_the_machine_balance():
    """Evaluating a value again is cheaper than storing and reloading it
    as long as the extra flops take less time than the bytes: on the
    Haswell model one 16-byte round trip buys ~180 flops."""
    balance = 16 * HASWELL.peak_flops / HASWELL.achievable_bandwidth
    assert 150 < balance < 200
    assert recompute_pays(20, 16, HASWELL)           # a PPM interface value
    assert recompute_pays(int(balance) - 1, 16, HASWELL)
    assert not recompute_pays(int(balance) + 1, 16, HASWELL)
    assert not recompute_pays(300, 16, HASWELL)      # one pow()


def test_network_halo_exchange_time():
    msgs = [8 * 192 * 80 * 3] * 4  # 4 neighbor messages
    t = ARIES.halo_exchange_time(msgs)
    assert t > ARIES.latency * 4
    assert t == pytest.approx(
        ARIES.latency * 4 + max(msgs) / ARIES.bandwidth
    )
    assert ARIES.halo_exchange_time([]) == 0.0
