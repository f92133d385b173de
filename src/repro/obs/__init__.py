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
  export (consumed by the benchmarks).
- :func:`median_time` / :func:`confidence_interval` — repeated-run
  measurement helpers.

- :mod:`repro.obs.counters` — the one counter store: every subsystem
  declares its counters as a :class:`Counters` set and registers it;
  report footers, the JSON export and what a rank worker ships to its
  parent are loops over that registry.

``REPRO_TRACE=1`` enables tracing process-wide;
:func:`set_observed_machine` selects the roofline reference used in
reports. See ``docs/observability.md``.
"""

from repro.obs.metrics import (
    observed_machine,
    set_observed_machine,
    stencil_traffic_bytes,
)
from repro.obs.report import report, snapshot, to_json
from repro.obs.timing import confidence_interval, median_time
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
    "confidence_interval",
    "disable",
    "enable",
    "enabled",
    "get_tracer",
    "median_time",
    "observed_machine",
    "report",
    "reset",
    "set_observed_machine",
    "snapshot",
    "span",
    "stencil_traffic_bytes",
    "timed",
    "to_json",
]
