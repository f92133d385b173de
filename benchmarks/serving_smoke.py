"""CI serving smoke: the forecast front door under load, warm repeats,
and seeded chaos.

Three legs against one :class:`repro.serve.ForecastService`:

1. **throughput** — 8 concurrent client threads submit mixed
   (seed, member, lead) forecasts; every request must complete with a
   typed outcome, and we record p50/p99 latency, queue wait, and
   requests/s.
2. **warm repeat** — the same queries again: all must be exact cache
   hits with zero model steps computed and zero new stencil compiles
   (the engines stay warm; repeats are ~free).
3. **seeded chaos** — a pinned ``REPRO_CHAOS``-grammar plan injects
   stencil NaNs, a poisoned pool buffer and a corrupted halo payload
   mid-request; every request must still complete inside its deadline
   (in-engine rollback-retry + the serving retry envelope), with zero
   shed, zero lost, and NaN-free reports.

Asserts, overall: submitted == completed across all legs (no lost
requests), the warm leg's hit ratio is 100%, and the chaos leg actually
injected faults (the run would be vacuous otherwise).

Writes the latency percentiles, throughput and SLO counters to ``--out``
(default ``.bench_build/serving_smoke.json``, which git ignores; the CI
job passes ``--out BENCH_PR9.json`` to refresh the committed record).

Run:  PYTHONPATH=src python benchmarks/serving_smoke.py
"""

import argparse
import json
import os
import pathlib
import threading
import time

import numpy as np

CLIENTS = int(os.environ.get("REPRO_BENCH_SERVE_CLIENTS", "8"))
STEPS_MAX = 3
SEED = 42
DEADLINE = float(os.environ.get("REPRO_BENCH_SERVE_DEADLINE", "300"))
CHAOS_SPEC = "seed=7;stencil.nanflip@5,60;pool.poison@3;halo.corrupt@2,9"
ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "serving_smoke.json"


def _config():
    from repro.fv3.config import DynamicalCoreConfig

    return DynamicalCoreConfig(
        npx=12, npz=4, layout=1, dt_atmos=300.0, k_split=1, n_split=2,
        n_tracers=1,
    )


def _requests():
    from repro.serve import ForecastRequest

    return [
        ForecastRequest(
            "baroclinic_wave", 1 + i % STEPS_MAX, config=_config(),
            seed=SEED + i % 4, member=i % 2, deadline=DEADLINE,
        )
        for i in range(CLIENTS)
    ]


def _drive(service, requests):
    """Each request on its own client thread; returns the responses."""
    responses, errors = {}, {}

    def client(i, request):
        try:
            responses[i] = service.submit(request).result(timeout=DEADLINE)
        except Exception as exc:  # typed serving errors land here
            errors[i] = exc

    threads = [
        threading.Thread(target=client, args=(i, r))
        for i, r in enumerate(requests)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seconds = time.perf_counter() - t0
    assert not errors, f"requests failed: {errors}"
    assert len(responses) == len(requests)
    return responses, seconds


def _percentiles(responses):
    from repro.serve.metrics import percentile

    lat = [r.latency for r in responses.values()]
    queue = [r.queue_wait for r in responses.values()]
    return {
        "latency_p50_s": percentile(lat, 50),
        "latency_p99_s": percentile(lat, 99),
        "latency_max_s": max(lat),
        "queue_wait_p50_s": percentile(queue, 50),
    }


def throughput_leg(service):
    print(f"== leg 1: {CLIENTS} concurrent clients, cold engines ==")
    responses, seconds = _drive(service, _requests())
    stats = _percentiles(responses)
    stats["requests_per_s"] = len(responses) / seconds
    stats["wall_s"] = seconds
    print(f"   {len(responses)} forecasts in {seconds:.2f}s "
          f"({stats['requests_per_s']:.2f} req/s), latency "
          f"p50 {stats['latency_p50_s']:.3f}s / "
          f"p99 {stats['latency_p99_s']:.3f}s")
    for r in responses.values():
        assert np.isfinite(r.report["summary"]["max_wind"])
    return stats


def warm_leg(service):
    from repro.runtime import compile_cache

    print("== leg 2: identical queries against warm state ==")
    misses_before = compile_cache.stats()["misses"]
    responses, seconds = _drive(service, _requests())
    stats = _percentiles(responses)
    stats["wall_s"] = seconds
    hits = sum(1 for r in responses.values() if r.cache == "hit")
    computed = sum(r.steps_computed for r in responses.values())
    new_misses = compile_cache.stats()["misses"] - misses_before
    print(f"   {hits}/{len(responses)} cache hits, {computed} model "
          f"steps computed, {new_misses} new compiles, wall "
          f"{seconds:.2f}s")
    assert hits == len(responses), "warm repeats must all be cache hits"
    assert computed == 0, "warm repeats must do zero model work"
    assert new_misses == 0, "warm repeats must not compile anything"
    stats["cache_hits"] = hits
    stats["steps_computed"] = computed
    return stats


def chaos_leg(service):
    from repro.resilience import ChaosPlan, chaos

    print(f"== leg 3: seeded chaos ({CHAOS_SPEC!r}) ==")
    plan = ChaosPlan.from_spec(CHAOS_SPEC)
    chaos.set_plan(plan)
    try:
        # fresh seeds so nothing is served from the state cache — every
        # request steps the model through the fault sites
        requests = [
            r.__class__(
                r.scenario, r.steps, config=r.config, seed=900 + i,
                member=r.member, deadline=r.deadline,
            )
            for i, r in enumerate(_requests())
        ]
        responses, seconds = _drive(service, requests)
    finally:
        chaos.set_plan(None)
    injected = len(plan.injected)
    stats = _percentiles(responses)
    stats["wall_s"] = seconds
    stats["faults_injected"] = injected
    stats["replay_spec"] = plan.replay_spec() if injected else ""
    print(f"   {len(responses)} forecasts under {injected} injected "
          f"fault(s) in {seconds:.2f}s, latency p99 "
          f"{stats['latency_p99_s']:.3f}s")
    assert injected > 0, "chaos leg injected nothing — vacuous run"
    for r in responses.values():
        assert r.latency <= DEADLINE
        for value in r.report["summary"].values():
            assert np.isfinite(value), "NaN served under chaos"
    return stats


def main(out: pathlib.Path = OUT):
    from repro.serve import ForecastService, ServiceConfig

    service = ForecastService(ServiceConfig(
        workers=2, batch_max=4, max_queue=64,
        default_deadline=DEADLINE,
    ))
    try:
        legs = {
            "throughput": throughput_leg(service),
            "warm_repeat": warm_leg(service),
            "chaos": chaos_leg(service),
        }
        summary = service.summary()
    finally:
        service.close()

    requests = summary["requests"]
    submitted, completed = requests["submitted"], requests["completed"]
    assert requests["shed"] == 0, "smoke load must not shed"
    assert requests["deadline_exceeded"] == 0
    assert requests["failed"] == 0 and requests["cancelled"] == 0
    assert submitted == completed == 3 * CLIENTS, (
        f"lost requests: {submitted} submitted, {completed} completed"
    )
    print(f"\n== SLO ledger: {submitted} submitted == {completed} "
          f"completed, 0 shed / 0 failed / 0 deadline misses; "
          f"{requests['retries']} retries, cache "
          f"{summary['cache']['hits']} hits ==")

    payload = {
        "benchmark": "serving_smoke",
        "clients": CLIENTS,
        "deadline_s": DEADLINE,
        "chaos_spec": CHAOS_SPEC,
        "legs": legs,
        "requests": requests,
        "cache": summary["cache"],
        "breakers": summary["breakers"],
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    print("serving smoke: PASS")
    return payload


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=OUT,
                        help="where the result JSON goes (default: %(default)s)")
    main(parser.parse_args().out)
