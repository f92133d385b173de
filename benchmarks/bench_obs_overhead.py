"""Overhead budget of the repro.obs instrumentation (disabled path).

The tracing hooks live on per-stencil-call hot paths, so their disabled
cost must be negligible. This benchmark measures:

1. the per-entry cost of a disabled span (one ``tracer.span()`` call
   returning the shared no-op object, entered and exited),
2. the number of span sites one traced fvtp2d stencil call passes
   through, and
3. the wall time of that stencil call with tracing off,

and asserts that (1) x (2) stays under 2% of (3). It also exercises the
JSON export the way downstream benchmarks consume it, reporting the
recorded bytes and achieved GB/s of the traced call.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q
"""

import json

import numpy as np

from repro import obs
from repro.obs.tracer import Tracer

N, NK = 64, 20
H = 3


def _fvtp2d_call():
    """One transverse_update_y call (an fvtp2d stencil) and its args."""
    from repro.fv3.stencils.fvtp2d import transverse_update_y

    shape = (N + 2 * H, N + 2 * H, NK)
    rng = np.random.default_rng(0)
    q = rng.random(shape)
    fy_v = rng.random(shape)
    yfx = np.full(shape, 0.3)
    rarea = rng.random(shape[:2]) + 1.0
    q_adv = np.zeros(shape)
    origin = (0, H, 0)
    domain = (N + 2 * H, N, NK)

    def call():
        transverse_update_y(q, fy_v, yfx, rarea, q_adv,
                            origin=origin, domain=domain)

    return call


def _disabled_span_cost(iterations=200_000):
    """Median per-entry seconds of a no-op span, loop overhead included."""
    tracer = Tracer("bench", enabled=False)

    def loop():
        for _ in range(iterations):
            with tracer.span("x"):
                pass

    return obs.median_time(loop, repetitions=5) / iterations


def _span_sites_per_call(call):
    """How many span entries one traced call records."""
    tracer = obs.get_tracer()
    saved = (tracer.enabled, tracer.root, tracer._stack)
    tracer.reset()
    tracer.enable()
    try:
        call()
        payload = json.loads(obs.to_json())
    finally:
        tracer.enabled, tracer.root, tracer._stack = saved

    def count(nodes):
        return sum(n["count"] + count(n["children"]) for n in nodes)

    return count(payload["spans"]), payload


def test_noop_tracing_overhead_below_two_percent(report):
    call = _fvtp2d_call()
    call()  # warm up (parse/compile caches)

    per_site = _disabled_span_cost()
    sites, payload = _span_sites_per_call(call)
    call_seconds = obs.median_time(call, repetitions=20)
    overhead = per_site * sites / call_seconds

    stencil_span = payload["spans"][0]
    nbytes = stencil_span["attrs"]["bytes"]
    gbs = nbytes / stencil_span["total_seconds"] / 1e9

    report("repro.obs no-op overhead on an fvtp2d stencil call "
           f"({N}²×{NK})")
    report(f"  disabled span cost:   {per_site * 1e9:8.1f} ns/entry")
    report(f"  span sites per call:  {sites:8d}")
    report(f"  stencil call:         {call_seconds * 1e3:8.3f} ms")
    report(f"  estimated overhead:   {overhead * 100:8.4f} %")
    report(f"  traced-call traffic:  {nbytes / 1e6:8.2f} MB "
           f"({gbs:.2f} GB/s achieved)")

    assert sites >= 2  # stencil.<name> + exec.numpy (the NumPy emission)
    assert overhead < 0.02
