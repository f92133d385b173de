"""CI chaos smoke: a seeded faulty dyncore run must recover bit-identically.

Runs a short baroclinic-wave integration twice — once clean, once under a
``REPRO_CHAOS`` plan that drops a halo message, corrupts another, poisons
a pool buffer and flips a NaN into a stencil output — and asserts:

1. every planned fault fired and was recorded for replay;
2. the recovery counters are nonzero (rollback + retry actually ran);
3. the final prognostic state is bit-identical to the clean run;
4. the disabled-path fvtp2d benchmark is within noise of the recorded
   ``BENCH_PR3.json`` baseline (the resilience hooks cost nothing when
   off).

Run:  PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

import json
import os
import pathlib
import sys
import time
import warnings

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))

CHAOS = os.environ.get(
    "REPRO_CHAOS",
    "seed=7;halo.drop@40;halo.corrupt@11;pool.poison@3;stencil.nanflip@5;"
    "compile.fail@1",
)
STEPS = 2
BASELINE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR3.json"
#: generous CI-noise bound: the disabled-path bench must not be slower
#: than this factor times the recorded baseline median
NOISE_FACTOR = 2.0

FIELDS = ("u", "v", "w", "pt", "delp", "delz")


def _run(plan=None, res=None):
    from repro.fv3.config import DynamicalCoreConfig
    from repro.fv3.dyncore import DynamicalCore
    from repro.resilience import chaos

    cfg = DynamicalCoreConfig(
        npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=2,
        n_tracers=1,
    )
    if plan is not None:
        # a compile can only fail where one happens: after the clean run
        # every program of this configuration would be bound to its
        # template without reaching the compile layer at all
        from repro.runtime import compile_cache

        compile_cache.reset(clear=True)
    chaos.set_plan(plan)
    core = DynamicalCore(cfg, resilience=res)
    for _ in range(STEPS):
        core.step_dynamics()
    chaos.set_plan(None)
    return core


def chaos_recovery():
    from repro import resilience
    from repro.resilience import GuardConfig, ResilienceConfig
    from repro.resilience.chaos import ChaosPlan

    clean = _run()
    plan = ChaosPlan.from_spec(CHAOS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        faulty = _run(
            plan,
            ResilienceConfig(
                guard=GuardConfig(policy="rollback"), max_retries=4
            ),
        )

    injected = plan.counts()
    counters = resilience.summary()["counters"]
    print(f"chaos spec    : {CHAOS}")
    print(f"injected      : {injected}")
    print(f"replay spec   : {plan.replay_spec()}")
    print(f"counters      : { {k: v for k, v in counters.items() if v} }")

    assert injected, "no faults fired — chaos plan never consulted"
    recoveries = counters["rollbacks"] + counters["halo_redeliveries"]
    assert recoveries > 0, "no recoveries recorded — injection was inert"
    assert counters["retries"] == counters["rollbacks"]
    if "compile.fail" in plan.rules:
        # the dyncore reaches the compile cache through the orchestration
        # layer, so the injected compile failure recovers via the same
        # rollback loop (degraded-mode fallback is covered separately in
        # tests/resilience/test_degraded.py)
        assert injected.get("compile.fail"), "compile.fail never consulted"

    for rank, (a, b) in enumerate(zip(clean.states, faulty.states)):
        for f in FIELDS:
            np.testing.assert_array_equal(
                getattr(a, f), getattr(b, f),
                err_msg=f"rank {rank} field {f} diverged after recovery",
            )
        for t, (ta, tb) in enumerate(zip(a.tracers, b.tracers)):
            np.testing.assert_array_equal(
                ta, tb, err_msg=f"rank {rank} tracer {t} diverged"
            )
    print(f"state         : bit-identical to clean run "
          f"({len(clean.states)} ranks x {len(FIELDS)} fields + tracers)")
    return {"injected": injected, "counters": dict(counters)}


def disabled_overhead():
    """fvtp2d with resilience hooks present but disabled, vs baseline."""
    from bench_table2_fvtp2d import _build

    if not BASELINE.exists():
        print("no BENCH_PR3.json baseline — skipping overhead check")
        return None
    recorded = json.loads(BASELINE.read_text())["fvtp2d"]["median_ms"]

    module, prog, args = _build(64, 20)
    prog.compile(instrument=True)
    prog(*args)  # warm-up
    times = []
    for _ in range(10):
        t0 = time.perf_counter()
        prog(*args)
        times.append(time.perf_counter() - t0)
    median_ms = 1e3 * float(np.median(times))
    print(f"fvtp2d median : {median_ms:.1f} ms "
          f"(baseline {recorded:.1f} ms, bound {NOISE_FACTOR}x)")
    assert median_ms <= NOISE_FACTOR * recorded, (
        f"disabled-path fvtp2d regressed: {median_ms:.1f} ms vs "
        f"baseline {recorded:.1f} ms"
    )
    return {"median_ms": median_ms, "baseline_ms": recorded}


def main():
    print("== chaos recovery ==")
    recovery = chaos_recovery()
    print("\n== disabled-path overhead ==")
    overhead = disabled_overhead()
    print("\nchaos smoke: PASS")
    return {"recovery": recovery, "overhead": overhead}


if __name__ == "__main__":
    main()
