"""CI smoke benchmark: zero-allocation hot path, reduced configuration.

Runs the Table 2 fvtp2d benchmark (64²×20 instead of the paper's
128–384²×80 sweep) and the obs-overhead probe in reduced iteration
counts, and writes ``BENCH_PR3.json`` with per-kernel times, allocation
counters and compile-cache hits so the performance trajectory of the
runtime subsystem is recorded per commit.

Run:  PYTHONPATH=src python benchmarks/bench_pr3_smoke.py
"""

import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))

N, NK = 64, 20
REPS = 15
OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR3.json"


def bench_fvtp2d():
    from bench_table2_fvtp2d import _build

    from repro.runtime import runtime_summary

    module, prog, args = _build(N, NK)
    prog.compile(instrument=True)
    prog(*args)  # warm-up: pool seeding + first-touch
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        prog(*args)
        times.append(time.perf_counter() - t0)
    kernel_ms = {
        label: {"total_ms": 1e3 * total, "calls": count}
        for label, (total, count) in prog.kernel_times.items()
    }
    return {
        "config": {"n": N, "nk": NK, "repetitions": REPS},
        "median_ms": 1e3 * float(np.median(times)),
        "min_ms": 1e3 * float(min(times)),
        "per_kernel": kernel_ms,
        "runtime": runtime_summary(),
    }


def bench_compile_cache():
    """Two timings of the same cutout: the second must hit the cache."""
    from repro.runtime import compile_cache as cc
    from repro.sdfg.cutout import state_cutouts, time_cutout

    from bench_table2_fvtp2d import _build

    _, prog, _ = _build(N, NK)
    cuts = state_cutouts(prog.sdfg)
    before = cc.stats()
    cut_ms = []
    for cut in cuts[:2]:
        time_cutout(cut, repetitions=1)
        cut_ms.append(1e3 * time_cutout(cut, repetitions=1))
    after = cc.stats()
    return {
        "cutouts_timed": len(cut_ms),
        "cutout_ms": cut_ms,
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        "stats": after,
    }


def bench_obs_overhead():
    from bench_obs_overhead import _disabled_span_cost, _fvtp2d_call

    from repro import obs

    span_cost = _disabled_span_cost(iterations=20_000)
    call = _fvtp2d_call()
    call()  # warm-up
    call_s = obs.median_time(call, repetitions=5)
    return {
        "disabled_span_ns": 1e9 * span_cost,
        "stencil_call_ms": 1e3 * call_s,
        "overhead_fraction": span_cost / call_s if call_s else None,
    }


def main():
    payload = {
        "benchmark": "pr3_zero_allocation_smoke",
        "fvtp2d": bench_fvtp2d(),
        "compile_cache": bench_compile_cache(),
        "obs_overhead": bench_obs_overhead(),
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {OUT}")
    assert payload["compile_cache"]["hits"] > 0, "compile cache never hit"
    return payload


if __name__ == "__main__":
    main()
