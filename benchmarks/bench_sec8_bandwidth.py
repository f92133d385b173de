"""Sec. VIII: performance bounds — memory bandwidth and instruction mix.

Paper: STREAM 43.77 GB/s (Haswell), 501.1 GB/s peak (P100); copy-stencil
40.99 / 489.83 GiB/s through GT4Py+DaCe → maximum memory-bound speedup
11.45×. PAPI: 40.15% of executed instructions are loads/stores.
"""

import numpy as np
import pytest

from repro.machine import GB, GiB, HASWELL, P100
from repro.core.heuristics import apply_schedule_heuristics
from repro.core.perfmodel import model_kernel_time, peak_time
from repro.fv3.stencils.basic_ops import copy_stencil
from repro.sdfg.analysis import load_store_fraction
from repro.sdfg.codegen import compile_sdfg

SHAPE = (192, 192, 80)


def _copy_sdfg(shape=SHAPE):
    return copy_stencil.build_sdfg(
        {"q_in": shape, "q_out": shape},
        {"q_in": np.float64, "q_out": np.float64},
        (0, 0, 0),
        shape,
    )


def test_sec8_bandwidth_model(report, benchmark):
    sdfg = benchmark.pedantic(_copy_sdfg, rounds=1, iterations=1)
    apply_schedule_heuristics(sdfg, P100)
    (kern,) = sdfg.all_kernels()
    nbytes = kern.moved_bytes(sdfg)
    t_gpu = model_kernel_time(kern, sdfg, P100)
    t_cpu = model_kernel_time(kern, sdfg, HASWELL)
    bw_gpu = nbytes / t_gpu
    bw_cpu = nbytes / t_cpu
    report("Sec. VIII-A — copy-stencil memory bandwidth (192²×80)")
    report(f"{'':<26} {'modeled':>12} {'paper':>12}")
    report(f"{'GPU bandwidth [GiB/s]':<26} {bw_gpu / GiB:>12.2f} {489.83:>12.2f}")
    report(f"{'CPU bandwidth [GiB/s]':<26} {bw_cpu / GiB:>12.2f} {40.99 * GB / GiB / (GB/GB):>12.2f}")
    report(f"{'peak ratio (max speedup)':<26} "
           f"{P100.peak_bandwidth / HASWELL.peak_bandwidth:>11.2f}x {11.45:>11.2f}x")
    # the copy stencil must sustain close to the measured fractions
    assert bw_gpu / GiB == pytest.approx(489.83, rel=0.12)
    assert bw_cpu / (40.99 * GiB) == pytest.approx(1.0, rel=0.25)


def test_sec8_load_store_fraction(report, benchmark):
    """The PAPI measurement analogue: ~40% of 'instructions' move data,
    over the programs one rank's step runs."""
    from repro.fv3.communicator import LocalComm
    from repro.fv3.config import DynamicalCoreConfig
    from repro.fv3.dyncore import DynamicalCore

    def build():
        cfg = DynamicalCoreConfig(npx=24, npz=16, layout=1, k_split=1,
                                  n_split=2)
        core = DynamicalCore(
            cfg, comm=LocalComm(cfg.total_ranks, owned_ranks=(0,))
        )
        return core.step_graphs()

    graphs = benchmark.pedantic(build, rounds=1, iterations=1)
    frac = load_store_fraction(graphs)
    report("Sec. VIII — load/store instruction fraction of the dycore")
    report(f"modeled: {100 * frac:.2f}%   paper (PAPI on FORTRAN): 40.15%")
    assert 0.1 < frac < 0.7  # data movement is a major instruction share


def test_measured_local_copy_bandwidth(report, benchmark):
    """Measured on THIS machine: the compiled copy stencil's achieved
    bandwidth (context for the modeled numbers; absolute value is
    hardware-dependent)."""
    shape = (192, 192, 80)
    sdfg = _copy_sdfg(shape)
    program = compile_sdfg(sdfg)
    q_in = np.random.default_rng(0).random(shape)
    q_out = np.zeros(shape)

    benchmark(lambda: program(arrays={"q_in": q_in, "q_out": q_out}))
    nbytes = 2 * q_in.nbytes
    seconds = benchmark.stats.stats.median
    report(
        f"measured local copy bandwidth: {nbytes / seconds / GiB:.2f} GiB/s "
        f"({nbytes / 1e6:.0f} MB moved per call)"
    )
    np.testing.assert_array_equal(q_in, q_out)
