"""Table II (left): Riemann solver performance across domain sizes.

Paper (FORTRAN vs GT4Py+DaCe on P100):
  128²×80: 12.27 ms vs 1.85 ms (6.63×)
  192²×80: 27.94 vs 3.86 (7.25×)    256²×80: 52.40 vs 6.96 (7.53×)
  384²×80: 121.80 vs 15.31 (7.96×)

Shape claims reproduced here (machine-model substitution, DESIGN.md):
  - FORTRAN scales super-linearly (cache capacity exceeded),
  - the GPU scales sub-linearly (2D thread grids underutilize it) with
    the gap narrowing as the domain grows,
  - the GPU wins at every size from the target domain up.
Additionally the *measured* wall-clock of the compiled dataflow backend is
benchmarked against the per-stencil debug backend at one size.
"""

import numpy as np
import pytest

from repro.machine import HASWELL, P100
from repro.core.perfmodel import model_sdfg_time
from repro.core.pipeline import optimize_sdfg_locally
from repro.fv3.stencils.riem_solver_c import RiemannSolverC

SIZES = (128, 192, 256, 384)
NK = 80
PAPER = {
    128: (12.27, 1.85),
    192: (27.94, 3.86),
    256: (52.40, 6.96),
    384: (121.80, 15.31),
}


def _build_sdfg(n, nk=NK):
    module = RiemannSolverC(n, n, nk, n_halo=3)
    shape = (n + 6, n + 6, nk)
    w = np.zeros(shape)
    delz = -np.ones(shape) * 500.0
    pt = np.full(shape, 300.0)
    delp = np.full(shape, 1000.0)
    prog = module.__call__
    prog.build(w, delz, pt, delp, 10.0)
    return module, prog


def _model_rows():
    rows = []
    for n in SIZES:
        _, prog = _build_sdfg(n)
        sdfg = prog.sdfg.copy()
        t_cpu = model_sdfg_time(sdfg, HASWELL)
        optimize_sdfg_locally(sdfg, P100)
        t_gpu = model_sdfg_time(sdfg, P100)
        rows.append((n, t_cpu, t_gpu))
    return rows


def test_table2_riemann_model(report, benchmark):
    rows = benchmark.pedantic(_model_rows, rounds=1, iterations=1)
    base = rows[0]
    report("Table II (left) — Riemann solver, modeled CPU(FORTRAN) vs GPU")
    report(f"{'size':>10} {'CPU[ms]':>9} {'scale':>6} {'GPU[ms]':>9} "
           f"{'scale':>6} {'speedup':>8} {'paper':>8}")
    for n, t_cpu, t_gpu in rows:
        paper_cpu, paper_gpu = PAPER[n]
        report(
            f"{n}²×80{'':<3} {t_cpu*1e3:>9.2f} {t_cpu/base[1]:>6.2f} "
            f"{t_gpu*1e3:>9.2f} {t_gpu/base[2]:>6.2f} "
            f"{t_cpu/t_gpu:>7.2f}x {paper_cpu/paper_gpu:>7.2f}x"
        )
    # shape assertions
    points = {n: (n / SIZES[0]) ** 2 for n in SIZES}
    for (n, t_cpu, t_gpu) in rows[1:]:
        assert t_cpu / base[1] > points[n], "CPU must scale super-linearly"
        assert t_gpu / base[2] < points[n], "GPU must scale sub-linearly"
    for n, t_cpu, t_gpu in rows:
        if n >= 192:
            assert t_cpu / t_gpu > 3.0, "GPU must win clearly at scale"
    speedups = [t_cpu / t_gpu for _, t_cpu, t_gpu in rows]
    assert speedups == sorted(speedups), "speedup must grow with domain"


@pytest.mark.parametrize("backend", ["numpy", "dataflow"])
def test_riemann_measured(benchmark, backend):
    """Measured: per-stencil debug backend vs compiled whole-module SDFG."""
    n, nk = 64, 40
    module, prog = _build_sdfg(n, nk)
    shape = (n + 6, n + 6, nk)
    w = np.zeros(shape)
    delz = -np.ones(shape) * 500.0
    pt = np.full(shape, 300.0)
    delp = np.full(shape, 1000.0)

    if backend == "dataflow":
        benchmark(lambda: prog(w, delz, pt, delp, 10.0))
    else:
        from repro.fv3.stencils.riem_solver_c import (
            precompute_coefficients,
            tridiagonal_solve,
            update_heights,
        )

        interior = dict(origin=(3, 3, 0), domain=(n, n, nk))
        # the module only declares its coefficients (program
        # transients); the un-orchestrated leg brings its own arrays
        aa, bb, cc, dd, gam = (np.zeros(shape) for _ in range(5))

        def run():
            precompute_coefficients(
                delz, pt, w, delp, aa, bb, cc, dd, 10.0, 100.0,
                backend="numpy", **interior,
            )
            tridiagonal_solve(
                aa, bb, cc, dd, w, gam, backend="numpy", **interior,
            )
            update_heights(w, delz, 10.0, backend="numpy", **interior)

        benchmark(run)
