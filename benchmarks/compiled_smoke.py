"""CI smoke benchmark: compiled CPU backend vs NumPy emission (PR 8).

Times the Table 2 fvtp2d operator at the BENCH_PR3 configuration
(64²×20) on both emission targets of the same whole-program SDFG — the
``out=``-scheduled ufunc program and the JITted scalar loop nests — and
writes ``BENCH_PR8.json`` with both medians, the per-kernel measured
GB/s against the machine-model roofline, and the JIT warmup attribution.

The compiled median must be measurably below the 34.6 ms PR-3 baseline
(target ≥ 1.5× over the same-run NumPy number).

Run:  PYTHONPATH=src python benchmarks/compiled_smoke.py
"""

import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))

N, NK = 64, 20
REPS = 15
PR3_BASELINE_MS = 34.6
OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR8.json"


def _median_ms(prog, args, reps=REPS):
    prog(*args)  # warm-up: pool seeding + first-touch
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        prog(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times)), 1e3 * float(min(times))


def _per_kernel(prog, args, reps=5):
    """Measured GB/s per kernel against the roofline, from an
    instrumented pass (modeled bytes over measured kernel time — the
    paper's Fig. 10 ratio)."""
    from repro.obs.metrics import observed_machine

    machine = observed_machine()
    prog.compile(instrument=True)
    prog(*args)
    before = dict(prog.kernel_times)
    for _ in range(reps):
        prog(*args)
    bytes_by_label = prog._kernel_bytes_by_label()
    rows = {}
    for label, (total, count) in prog.kernel_times.items():
        t0, c0 = before.get(label, (0.0, 0))
        dt, dc = total - t0, count - c0
        if dc <= 0 or dt <= 0:
            continue
        nbytes, nkernels = bytes_by_label.get(label, (0, 1))
        moved = dc * (nbytes // max(nkernels, 1))
        gbs = moved / dt / 1e9
        rows[label] = {
            "total_ms": 1e3 * dt,
            "calls": dc,
            "measured_gbs": gbs,
            "roofline_fraction": moved / dt / machine.achievable_bandwidth,
        }
    return rows, machine


def main():
    from bench_table2_fvtp2d import _build

    from repro.runtime import compile_cache, jit, runtime_summary

    if not jit.available():
        print("no JIT engine available (numba or a C compiler); skipping")
        return None

    # independent program objects: the backend choice is sticky per program
    _, prog_np, args_np = _build(N, NK)
    prog_np.compile(backend="numpy")
    np_median, np_min = _median_ms(prog_np, args_np)

    _, prog_c, args_c = _build(N, NK)
    prog_c.compile(backend="compiled")
    c_median, c_min = _median_ms(prog_c, args_c)

    for a, b in zip(args_np, args_c):
        np.testing.assert_array_equal(a, b)

    kernels, machine = _per_kernel(prog_c, args_c)
    speedup = np_median / c_median

    payload = {
        "benchmark": "pr8_compiled_backend_smoke",
        "config": {"n": N, "nk": NK, "repetitions": REPS},
        "machine": machine.name,
        "jit": jit.stats(),
        "fvtp2d": {
            "numpy": {"median_ms": np_median, "min_ms": np_min},
            "compiled": {"median_ms": c_median, "min_ms": c_min},
            "speedup": speedup,
            "pr3_baseline_ms": PR3_BASELINE_MS,
        },
        "per_kernel": kernels,
        "compile_cache": compile_cache.stats(),
        "runtime": runtime_summary(),
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {OUT}")
    assert c_median < PR3_BASELINE_MS, (
        f"compiled fvtp2d {c_median:.1f} ms is not below the "
        f"{PR3_BASELINE_MS} ms PR-3 baseline"
    )
    assert speedup > 1.0, "compiled backend slower than NumPy emission"
    assert kernels, "instrumented pass recorded no per-kernel times"
    print(
        f"fvtp2d: numpy {np_median:.2f} ms → compiled {c_median:.2f} ms "
        f"({speedup:.2f}x, engine {jit.stats()['engine']})"
    )
    return payload


if __name__ == "__main__":
    main()
