"""CI ensemble smoke: batching members must amortize fixed costs.

Measures, with cold process-wide caches each time:

1. one single-member run of the baroclinic scenario (grid build +
   stencil compilation + stepping), and
2. one 4-member ensemble of the same scenario through
   ``repro.run.run``.

Asserts:

- the ensemble costs measurably less than 4x the single run — the
  members share the built geometry, the content-hash compile cache and
  the pooled buffers instead of paying cold start four times;
- the ensemble actually amortized orchestration and compilation (each
  program traced once and bound for every other rank, compile misses
  no more than a single run's);
- every batch member is bit-identical to the same member run
  standalone (``members=(k,)``) from the same root seed, and a re-run
  of the whole ensemble is bit-identical to the first;
- every member passes the scenario's reference checks.

Writes ``BENCH_PR6.json`` with the timings and cache counters.

Run:  PYTHONPATH=src python benchmarks/ensemble_smoke.py
"""

import json
import os
import pathlib
import time

import numpy as np

MEMBERS = 4
STEPS = int(os.environ.get("REPRO_BENCH_ENSEMBLE_STEPS", "2"))
SEED = 42
#: the ensemble must beat naive 4x-single by at least this factor
TARGET_AMORTIZATION = float(
    os.environ.get("REPRO_BENCH_ENSEMBLE_TARGET", "1.15")
)
ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_PR6.json"

FIELDS = ("u", "v", "w", "pt", "delp", "delz")


def _config():
    from repro.fv3.config import DynamicalCoreConfig

    return DynamicalCoreConfig(
        npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=4,
        n_tracers=1,
    )


def _cold_caches():
    """Drop every process-wide amortizable artifact, so the next run
    pays true cold-start costs."""
    from repro.runtime import compile_cache
    from repro.runtime.pool import get_pool

    compile_cache.reset(clear=True)
    get_pool().clear()


def _timed_run(members):
    """Build + run with cold caches; returns (seconds, RunResult)."""
    from repro.run import run

    _cold_caches()
    t0 = time.perf_counter()
    result = run(
        "baroclinic_wave", _config(), steps=STEPS, members=members,
        seed=SEED, diagnostics=False,
    )
    return time.perf_counter() - t0, result


def _assert_states_equal(a, b, context):
    for rank, (sa, sb) in enumerate(zip(a.states, b.states)):
        for f in FIELDS:
            np.testing.assert_array_equal(
                getattr(sa, f), getattr(sb, f),
                err_msg=f"{context}: rank {rank} field {f} diverged",
            )
        for t, (ta, tb) in enumerate(zip(sa.tracers, sb.tracers)):
            np.testing.assert_array_equal(
                ta, tb, err_msg=f"{context}: rank {rank} tracer {t}",
            )


def amortization():
    print(f"== cold single run vs {MEMBERS}-member ensemble "
          f"({STEPS} step(s)) ==")
    t_single, single = _timed_run(1)
    print(f"single (cold) : {t_single:.3f}s  "
          f"compile cache {single.amortization['compile_hits']} hits / "
          f"{single.amortization['compile_misses']} misses")
    t_ens, ens = _timed_run(MEMBERS)
    am = ens.amortization
    print(f"ensemble x{MEMBERS}   : {t_ens:.3f}s  "
          f"compile cache {am['compile_hits']} hits / "
          f"{am['compile_misses']} misses, "
          f"{am['grid_builds_avoided']} grid builds avoided, "
          f"pool reuse {am['pool_reuse_hits']}")

    naive = MEMBERS * t_single
    speedup = naive / t_ens
    print(f"amortization  : {t_ens:.3f}s vs naive {naive:.3f}s "
          f"({speedup:.2f}x)")
    assert speedup >= TARGET_AMORTIZATION, (
        f"{MEMBERS}-member ensemble at {t_ens:.3f}s is not measurably "
        f"cheaper than {MEMBERS}x a single run ({naive:.3f}s); "
        f"speedup {speedup:.2f} < target {TARGET_AMORTIZATION}"
    )
    assert am["program_binds"] > 0 and am["program_traces"] <= 10, (
        f"batched run traced {am['program_traces']} programs and bound "
        f"{am['program_binds']} — ranks and members are not sharing "
        "traced programs"
    )
    assert am["compile_misses"] <= single.amortization["compile_misses"], (
        f"the {MEMBERS}-member ensemble compiled "
        f"{am['compile_misses']} programs but a single run only needs "
        f"{single.amortization['compile_misses']} — members are paying "
        f"per-member compiles instead of sharing the engine's"
    )
    assert all(m.ok for m in ens.members), (
        f"reference checks failed: "
        f"{ {m.member: m.check_violations for m in ens.members} }"
    )
    return t_single, single, t_ens, ens


def determinism(ens):
    from repro.run import run

    print("\n== member independence + re-run determinism ==")
    for k in range(MEMBERS):
        alone = run(
            "baroclinic_wave", _config(), steps=STEPS, members=(k,),
            seed=SEED, diagnostics=False, check=False,
        )
        _assert_states_equal(
            ens.member(k), alone.member(k),
            f"member {k} standalone vs batch",
        )
    print(f"members 0..{MEMBERS - 1}: standalone == batch (bit-identical)")
    rerun = run(
        "baroclinic_wave", _config(), steps=STEPS, members=MEMBERS,
        seed=SEED, diagnostics=False, check=False,
    )
    for k in range(MEMBERS):
        _assert_states_equal(
            ens.member(k), rerun.member(k), f"re-run member {k}"
        )
    print("ensemble re-run with the same root seed: bit-identical")


def main():
    t_single, single, t_ens, ens = amortization()
    determinism(ens)

    payload = {
        "benchmark": "pr6_ensemble_smoke",
        "config": {
            "npx": 12, "npz": 4, "layout": 1, "k_split": 1, "n_split": 4,
            "steps": STEPS, "members": MEMBERS, "seed": SEED,
        },
        "single_cold_seconds": t_single,
        "ensemble_cold_seconds": t_ens,
        "naive_n_times_single_seconds": MEMBERS * t_single,
        "amortization_speedup": MEMBERS * t_single / t_ens,
        "target_amortization": TARGET_AMORTIZATION,
        "single_compile_cache": {
            "hits": single.amortization["compile_hits"],
            "misses": single.amortization["compile_misses"],
        },
        "ensemble_compile_cache": {
            "hits": ens.amortization["compile_hits"],
            "misses": ens.amortization["compile_misses"],
        },
        "grid_builds_avoided": ens.amortization["grid_builds_avoided"],
        "pool_reuse_hits": ens.amortization["pool_reuse_hits"],
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUT.name}")
    print("ensemble smoke: PASS")
    return payload


if __name__ == "__main__":
    main()
