"""repro.obs — structured tracing and metrics for the whole toolchain.

The paper's methodology (Fig. 7) is measurement-driven: heuristics,
auto-tuning, transfer and fine tuning are all chosen from observed or
modeled time and data movement. This subsystem is how the reproduction
observes itself:

- :class:`Tracer` / :func:`span` — nestable spans recording wall time,
  call counts and attached metrics, aggregated by (parent, name) so hot
  loops stay bounded. Disabled by default at (near) zero cost; switch on
  with ``REPRO_TRACE=1`` or :func:`enable`.
- per-stencil metrics — ``StencilObject.__call__`` and both executors
  record invocations, domain points, estimated bytes moved (from extent
  inference) and, via the report, achieved GB/s against the
  :mod:`repro.machine` roofline.
- halo-exchange counters — messages, bytes and orientation-transform
  time in :mod:`repro.fv3.halo`.
- :func:`report` / :func:`to_json` — text span-tree table and JSON
  export (consumed by the benchmarks), rendered by
  :mod:`repro.obs.render`, which loads on their first use.
- :func:`median_time` — the repeated-run measurement helper.

- :mod:`repro.obs.counters` — the one counter store: every subsystem
  declares its counters as a :class:`Counters` set and registers it;
  report footers, the JSON export and what a rank worker ships to its
  parent are loops over that registry.

``REPRO_TRACE=1`` enables tracing process-wide; reports measure against
the roofline of :func:`observed_machine`. See ``docs/observability.md``.
"""

from repro.obs.metrics import (
    observed_machine,
    stencil_traffic_bytes,
)
from repro.obs.tracer import (
    Span,
    Tracer,
    disable,
    enable,
    enabled,
    get_tracer,
    reset,
    span,
    timed,
)

__all__ = [
    "Span",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "get_tracer",
    "median_time",
    "observed_machine",
    "report",
    "reset",
    "snapshot",
    "span",
    "stencil_traffic_bytes",
    "timed",
    "to_json",
]

_RENDERED = ("report", "snapshot", "to_json")
_TIMING = ("median_time",)


def __getattr__(name):
    # the renderer (and what its footers read) loads with the first
    # report, the measurement helpers with their first use
    if name in _RENDERED:
        from repro.obs import render

        globals().update({n: getattr(render, n) for n in _RENDERED})
        return globals()[name]
    if name in _TIMING:
        from repro.obs import timing

        return getattr(timing, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
