"""Table II (right): Finite Volume Transport across domain sizes.

Paper (FORTRAN vs GT4Py+DaCe):
  128²×80: 3.41 vs 1.81 ms (1.88×)   192²×80: 12.31 vs 3.41 (3.61×)
  256²×80: 35.79 vs 5.67 (6.31×)     384²×80: 106.66 vs 13.10 (8.14×)

Key shape: the FORTRAN version is cache-resident at small domains (only
~0.13% L3 misses at 192², Sec. VIII-C) and falls off the cache as the
domain grows — the speedup climbs from ~2× toward the bandwidth ratio.
"""

import numpy as np
import pytest

from repro.machine import HASWELL, P100
from repro.core.perfmodel import model_sdfg_time
from repro.core.pipeline import optimize_sdfg_locally
from repro.fv3.corners import rank_corners
from repro.fv3.grid import CubedSphereGrid
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.fv3.stencils.fvtp2d import FiniteVolumeTransport

SIZES = (128, 192, 256, 384)
NK = 80
PAPER = {
    128: (3.41, 1.81),
    192: (12.31, 3.41),
    256: (35.79, 5.67),
    384: (106.66, 13.10),
}


def _build(n, nk=NK):
    p = CubedSpherePartitioner(n, 1)
    g = CubedSphereGrid.build(p, 0, 3)
    module = FiniteVolumeTransport(n, n, nk, g.rarea, rank_corners(p, 0), 3)
    shape = (n + 6, n + 6, nk)
    rng = np.random.default_rng(0)
    q = rng.random(shape)
    cr = np.full(shape, 0.3)
    fx = np.zeros(shape)
    fy = np.zeros(shape)
    prog = module.__call__
    # build with the exact argument tuple later passed to prog(*args):
    # the build cache keys on array identity, so building with throwaway
    # copies would force a silent rebuild (and recompile) on first call
    args = (q, cr, cr.copy(), cr.copy(), cr.copy(), fx, fy)
    prog.build(*args)
    return module, prog, args


def _model_rows():
    rows = []
    for n in SIZES:
        _, prog, _ = _build(n)
        sdfg = prog.sdfg.copy()
        t_cpu = model_sdfg_time(sdfg, HASWELL)
        optimize_sdfg_locally(sdfg, P100)
        t_gpu = model_sdfg_time(sdfg, P100)
        rows.append((n, t_cpu, t_gpu))
    return rows


def test_table2_fvtp2d_model(report, benchmark):
    rows = benchmark.pedantic(_model_rows, rounds=1, iterations=1)
    base = rows[0]
    report("Table II (right) — Finite Volume Transport, modeled")
    report(f"{'size':>10} {'CPU[ms]':>9} {'scale':>6} {'GPU[ms]':>9} "
           f"{'scale':>6} {'speedup':>8} {'paper':>8}")
    for n, t_cpu, t_gpu in rows:
        paper_cpu, paper_gpu = PAPER[n]
        report(
            f"{n}²×80{'':<3} {t_cpu*1e3:>9.2f} {t_cpu/base[1]:>6.2f} "
            f"{t_gpu*1e3:>9.2f} {t_gpu/base[2]:>6.2f} "
            f"{t_cpu/t_gpu:>7.2f}x {paper_cpu/paper_gpu:>7.2f}x"
        )
    # shape: super-linear CPU scaling at the largest size (cache falloff),
    # monotonically growing speedup, approaching the bandwidth ratio
    t384 = rows[-1]
    assert t384[1] / base[1] > (384 / 128) ** 2
    speedups = [t_cpu / t_gpu for _, t_cpu, t_gpu in rows]
    assert speedups == sorted(speedups)
    assert speedups[0] < 5.0  # CPU competitive when cache-resident
    assert speedups[-1] < 11.45  # bounded by the bandwidth ratio


@pytest.mark.parametrize("mode", ["module_numpy", "module_dataflow"])
def test_fvtp2d_measured(benchmark, mode):
    """Measured wall-clock of the transport operator, debug backend vs
    compiled dataflow program (one call, 64²×20)."""
    n, nk = 64, 20
    module, prog, args = _build(n, nk)
    if mode == "module_dataflow":
        benchmark(lambda: prog(*args))
    else:
        q, crx, cry, xfx, yfx, fx, fy = args
        from repro.fv3.corners import fill_corners
        from repro.fv3.stencils.fvtp2d import (
            scale_flux_x,
            scale_flux_y,
            transverse_update_x,
            transverse_update_y,
        )
        from repro.fv3.stencils.xppm import xppm_flux
        from repro.fv3.stencils.yppm import yppm_flux

        h = 3
        # the module only declares its intermediates (program
        # transients); the un-orchestrated leg brings its own arrays
        fy_v, fx_v, q_y, q_x, fxv2, fyv2 = (
            np.zeros(q.shape) for _ in range(6)
        )

        def run():
            fill_corners(q, "y", module.corner_list)
            yppm_flux(q, cry, fy_v, backend="numpy",
                      origin=(0, h, 0), domain=(n + 6, n + 1, nk))
            transverse_update_y(q, fy_v, yfx, module.rarea,
                                q_y, backend="numpy",
                                origin=(0, h, 0), domain=(n + 6, n, nk))
            fill_corners(q, "x", module.corner_list)
            xppm_flux(q, crx, fx_v, backend="numpy",
                      origin=(h, 0, 0), domain=(n + 1, n + 6, nk))
            transverse_update_x(q, fx_v, xfx, module.rarea,
                                q_x, backend="numpy",
                                origin=(h, 0, 0), domain=(n, n + 6, nk))
            xppm_flux(q_y, crx, fxv2, backend="numpy",
                      origin=(h, h, 0), domain=(n + 1, n, nk))
            scale_flux_x(fxv2, xfx, fx, backend="numpy",
                         origin=(h, h, 0), domain=(n + 1, n, nk))
            yppm_flux(q_x, cry, fyv2, backend="numpy",
                      origin=(h, h, 0), domain=(n, n + 1, nk))
            scale_flux_y(fyv2, yfx, fy, backend="numpy",
                         origin=(h, h, 0), domain=(n, n + 1, nk))

        benchmark(run)
