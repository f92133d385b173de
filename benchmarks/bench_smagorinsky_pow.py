"""Sec. VI-C1: the Smagorinsky-diffusion power-operator case study.

Paper: the kernel ``vort = dt*(delpc**2.0 + vort**2.0)**0.5`` generated
general-purpose pow() calls; the strength-reduction transformation
(powers → multiplies, **0.5 → sqrt) cut the kernel from 511.16 µs to
129.02 µs with the model reporting 99.68% bandwidth utilization after,
and a 1.81% whole-step improvement.
"""

import numpy as np
import pytest

from repro.machine import P100
from repro.core.heuristics import apply_schedule_heuristics
from repro.core.perfmodel import model_kernel_time, peak_time
from repro.dsl.backend_compiled import StencilExecutor
from repro.fv3.stencils.d_sw import smagorinsky_diffusion
from repro.sdfg.codegen import compile_sdfg
from repro.sdfg.transformations import PowerExpansion, apply_exhaustively

SHAPE = (192, 192, 80)


def _sdfg(shape=SHAPE):
    ex = StencilExecutor(smagorinsky_diffusion)
    sdfg = ex.build_sdfg(
        {"delpc": shape, "vort": shape, "smag": shape},
        {n: np.float64 for n in ("delpc", "vort", "smag")},
        (0, 0, 0),
        shape,
    )
    apply_schedule_heuristics(sdfg, P100)
    return sdfg


def test_smagorinsky_power_model(report, benchmark):
    sdfg = benchmark.pedantic(_sdfg, rounds=1, iterations=1)
    (kern,) = sdfg.all_kernels()
    t_before = model_kernel_time(kern, sdfg, P100)
    util_before = peak_time(kern, sdfg, P100) / t_before

    applied = apply_exhaustively(sdfg, [PowerExpansion()])
    assert applied == 1
    t_after = model_kernel_time(kern, sdfg, P100)
    util_after = peak_time(kern, sdfg, P100) / t_after

    report("Sec. VI-C1 — Smagorinsky power-operator strength reduction")
    report(f"{'':<24} {'modeled':>12} {'paper':>12}")
    report(f"{'kernel before [us]':<24} {t_before*1e6:>12.2f} {511.16:>12.2f}")
    report(f"{'kernel after  [us]':<24} {t_after*1e6:>12.2f} {129.02:>12.2f}")
    report(f"{'utilization after':<24} {100*util_after:>11.2f}% {99.68:>11.2f}%")
    # shape: the transformation takes the kernel from compute-bound to
    # essentially memory-bound (high % of the bandwidth bound)
    assert t_after < t_before
    assert util_after > 0.90
    assert util_after > util_before


@pytest.mark.parametrize("variant", ["pow", "strength_reduced"])
def test_smagorinsky_measured(benchmark, variant, report):
    """Measured on this machine: generated NumPy pow() vs sqrt/multiply."""
    shape = (128, 128, 40)
    sdfg = _sdfg(shape)
    if variant == "strength_reduced":
        apply_exhaustively(sdfg, [PowerExpansion()])
        src = compile_sdfg(sdfg).source
        assert "**" not in src and "np.sqrt" in src
    program = compile_sdfg(sdfg)
    rng = np.random.default_rng(0)
    arrays = {
        "delpc": rng.random(shape),
        "vort": rng.random(shape),
        "smag": np.zeros(shape),
    }
    benchmark(lambda: program(arrays=arrays, scalars={"dt": 0.2}))
    report(f"{variant}: median {benchmark.stats.stats.median*1e3:.3f} ms")
