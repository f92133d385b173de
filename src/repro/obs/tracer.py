"""Structured tracing: nestable spans with wall time, call counts and
user-attached attributes.

Design goals (in order):

1. **Zero-cost when off.** ``Tracer.span`` returns a shared no-op context
   manager when tracing is disabled — no allocation, no clock read.
   Enabling is a process-wide switch (``REPRO_TRACE=1`` or
   :func:`enable`), so instrumented code never needs its own guard.
2. **Bounded trees.** Spans aggregate by ``(parent, name)``: calling the
   same span 10,000 times inside a loop produces one node with
   ``count == 10000``, not 10,000 nodes. This is what makes it safe to
   instrument per-stencil-call hot paths.
3. **Attachable metrics.** ``span.add("bytes", n)`` accumulates numeric
   attributes; ``span.set("backend", "numpy")`` overwrites. The report
   layer derives achieved GB/s and roofline fractions from these.

A process-wide registry maps names to tracers; the default tracer
(``get_tracer()``) is the one all built-in instrumentation records into.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Dict, Optional

__all__ = [
    "Span",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "get_tracer",
    "reset",
    "span",
    "timed",
]


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "").strip().lower() in (
        "1", "true", "yes", "on"
    )


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, key, value) -> None:
        pass

    def add(self, key, value) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: one lock for all span-tree mutation. Tracing is off by default, so
#: the lock is touched only on explicitly traced runs; per-thread stack
#: manipulation stays lock-free (stacks are thread-local).
_SPAN_LOCK = threading.Lock()


class Span:
    """One aggregated node of the span tree.

    A span accumulates over every entry with the same name under the same
    parent: ``count`` entries totalling ``total_seconds`` of wall time.
    """

    __slots__ = ("name", "count", "total_seconds", "attrs", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_seconds = 0.0
        self.attrs: Dict[str, object] = {}
        self.children: Dict[str, "Span"] = {}

    # -- metric attachment ---------------------------------------------
    def set(self, key: str, value) -> None:
        """Attach (overwrite) an attribute on this span."""
        with _SPAN_LOCK:
            self.attrs[key] = value

    def add(self, key: str, value) -> None:
        """Accumulate a numeric attribute across entries."""
        with _SPAN_LOCK:
            self.attrs[key] = self.attrs.get(key, 0) + value

    # -- tree access ----------------------------------------------------
    def child(self, name: str) -> "Span":
        node = self.children.get(name)
        if node is None:
            with _SPAN_LOCK:
                node = self.children.get(name)
                if node is None:
                    node = Span(name)
                    self.children[name] = node
        return node

    @property
    def self_seconds(self) -> float:
        """Wall time not accounted for by child spans."""
        return self.total_seconds - sum(
            c.total_seconds for c in self.children.values()
        )

    # -- cross-process serialization -----------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A picklable/JSON-able copy of this subtree (plain dicts and
        lists only — the shape worker processes ship over result pipes)."""
        with _SPAN_LOCK:
            count = self.count
            total = self.total_seconds
            attrs = dict(self.attrs)
            children = list(self.children.values())
        return {
            "name": self.name,
            "count": count,
            "total_seconds": total,
            "attrs": attrs,
            "children": [c.to_dict() for c in children],
        }

    def merge_dict(self, data: Dict[str, object]) -> None:
        """Fold a serialized subtree (from :meth:`to_dict`, possibly
        produced in another process) into this span: counts and wall time
        accumulate, numeric attributes add, other attributes fill in only
        when absent, children merge recursively by name."""
        with _SPAN_LOCK:
            self.count += int(data.get("count", 0))
            self.total_seconds += float(data.get("total_seconds", 0.0))
            for key, value in (data.get("attrs") or {}).items():
                mine = self.attrs.get(key)
                if (
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and isinstance(mine, (int, float))
                    and not isinstance(mine, bool)
                ):
                    self.attrs[key] = mine + value
                elif key not in self.attrs:
                    self.attrs[key] = value
        for child_data in data.get("children") or ():
            self.child(str(child_data["name"])).merge_dict(child_data)

class _ActiveSpan:
    """Context manager for one live entry into a :class:`Span`."""

    __slots__ = ("_tracer", "_node", "_t0")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._node = tracer._stack[-1].child(name)

    def __enter__(self) -> Span:
        node = self._node
        with _SPAN_LOCK:
            node.count += 1
        self._tracer._stack.append(node)
        self._t0 = time.perf_counter()
        return node

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._t0
        with _SPAN_LOCK:
            self._node.total_seconds += elapsed
        self._tracer._stack.pop()
        return False


class _TimedSpan:
    """A span that always measures wall time, even when tracing is off.

    Replaces ad-hoc ``time.perf_counter()`` pairs: the elapsed time is
    available on ``.seconds`` after the ``with`` block, and — when the
    tracer is enabled — the measurement is also recorded in the span tree.
    """

    __slots__ = ("_cm", "_t0", "seconds", "span")

    def __init__(self, tracer: "Tracer", name: str):
        self._cm = tracer.span(name)
        self.seconds = 0.0
        self.span: Optional[Span] = None

    def __enter__(self) -> "_TimedSpan":
        entered = self._cm.__enter__()
        self.span = entered if isinstance(entered, Span) else None
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.seconds = time.perf_counter() - self._t0
        return self._cm.__exit__(*exc)


class Tracer:
    """A named tracer holding one span tree and an on/off switch.

    ``enabled=None`` (the default) reads the ``REPRO_TRACE`` environment
    variable, so exporting ``REPRO_TRACE=1`` turns on every tracer created
    afterwards — including the process-wide default.
    """

    def __init__(self, name: str = "repro", enabled: Optional[bool] = None):
        self.name = name
        self.enabled = _env_enabled() if enabled is None else enabled
        self.root = Span("<root>")
        self._local = threading.local()

    #: the open-span stack is per-thread: each rank thread nests its own
    #: spans without corrupting another's. A thread that never entered a
    #: ``thread_context`` roots at the tracer's root.
    @property
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = [self.root]
            self._local.stack = stack
        return stack

    @_stack.setter
    def _stack(self, value: list) -> None:
        self._local.stack = value

    @contextlib.contextmanager
    def thread_context(self, parent: Span):
        """Root this thread's span stack at ``parent``.

        Executor rank tasks enter this with the span that was current on
        the submitting thread, so per-rank spans nest under the section
        that spawned them instead of dangling off the root.
        """
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent]
        try:
            yield
        finally:
            if saved is None:
                self._local.stack = [self.root]
            else:
                self._local.stack = saved

    # -- switching ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded spans (the enabled flag is untouched)."""
        self.root = Span("<root>")
        # fresh thread-local storage: every thread re-roots at the new
        # root the next time it opens a span
        self._local = threading.local()

    # -- cross-process merge --------------------------------------------
    def summary(self) -> Dict[str, object]:
        """The recorded span tree as plain dicts — what a worker process
        pickles back to its parent so per-process spans are not silently
        dropped from the parent's report."""
        return {
            "tracer": self.name,
            "spans": [c.to_dict() for c in self.root.children.values()],
        }

    def merge(self, summary: Dict[str, object]) -> None:
        """Fold another process's :meth:`summary` into this tracer's
        tree (top-level spans merge under the root by name)."""
        for span_data in summary.get("spans") or ():
            self.root.child(str(span_data["name"])).merge_dict(span_data)

    # -- recording ------------------------------------------------------
    def span(self, name: str):
        """Context manager for one (nested) span entry.

        When the tracer is disabled this returns a shared no-op object —
        the only cost is this method call and one attribute check.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name)

    def timed(self, name: str) -> _TimedSpan:
        """A span whose wall time is measured even when tracing is off."""
        return _TimedSpan(self, name)

    @property
    def current(self) -> Span:
        """The innermost open span (the root when none is open)."""
        return self._stack[-1]

# ---------------------------------------------------------------------------
# process-wide registry
# ---------------------------------------------------------------------------
_TRACERS: Dict[str, Tracer] = {}


def get_tracer(name: str = "repro") -> Tracer:
    """The process-wide tracer registered under ``name`` (created lazily).

    All built-in instrumentation (stencils, halo exchange, pipeline)
    records into the default ``"repro"`` tracer.
    """
    tracer = _TRACERS.get(name)
    if tracer is None:
        tracer = Tracer(name)
        _TRACERS[name] = tracer
    return tracer


def span(name: str):
    """Open a span on the default tracer: ``with obs.span("x") as sp:``."""
    return get_tracer().span(name)


def timed(name: str) -> _TimedSpan:
    """Always-measuring span on the default tracer (see ``Tracer.timed``)."""
    return get_tracer().timed(name)


def enable() -> None:
    """Turn on tracing on the default tracer."""
    get_tracer().enable()


def disable() -> None:
    """Turn off tracing on the default tracer."""
    get_tracer().disable()


def enabled() -> bool:
    """Whether the default tracer is currently recording."""
    return get_tracer().enabled


def reset() -> None:
    """Drop all spans recorded on the default tracer."""
    get_tracer().reset()
