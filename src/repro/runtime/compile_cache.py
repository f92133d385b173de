"""Compiled-program cache: content hash of an expanded SDFG → CompiledSDFG,
behind a store of orchestrated-program templates.

The tuning loops compile the same candidate many times: ``tune_cutout``
replays transformation sequences onto fresh SDFG copies, transfer tuning
re-times cutouts per pattern, and orchestration recompiles after identical
rebuilds. Two SDFG *objects* with equal content generate equal programs,
so compilation is memoized on a canonical serialization of the expanded
graph (array descriptors, kernel schedules/sections/statements, control
flow, tasklets; callbacks by function, with array arguments by container
name and constant arguments by value). A cached program therefore holds
no array of the run that compiled it. The exception is a callback
argument that is neither an array nor a value-hashable constant: it is
keyed by object identity, the cached program pins that object (so its id
cannot be recycled while the entry lives), and the orchestrated program
around it is traced per instance instead of shared.

In front of the content hash sits the template store
(:func:`template_family`): :mod:`repro.orchestration.program` traces each
(function, owner class) once, publishes the result here and *binds* every
later instance to it without building or hashing an SDFG at all. The
store only holds the families, their single-flight locks and the
counters; what a template records is the orchestration layer's business.

Counters (hits, misses, bytes saved by not re-allocating the program's
transient/local working set; program traces, binds and live templates)
are surfaced through ``repro.obs`` spans and the report footer.
``REPRO_COMPILE_CACHE=0`` disables both levels (every new binding
retraces and recompiles); ``REPRO_COMPILE_CACHE_SIZE`` bounds each of
them (LRU, default 256 programs and 256 templates).
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import Dict, Hashable, Optional

from repro.obs import tracer as _obs
from repro.resilience import chaos as _chaos
from repro.resilience.errors import InjectedCompileError

__all__ = ["get_or_compile", "cache_key", "codegen_flags", "template_family",
           "TemplateFamily", "note_trace", "note_bind", "merge_stats",
           "stats", "reset"]

_SEP = "\x1f"

_CACHE: "OrderedDict[str, object]" = OrderedDict()
#: per-backend counters, so cross-backend A/B runs report hits/misses per
#: backend instead of a single merged number
_HITS: Dict[str, int] = {}
_MISSES: Dict[str, int] = {}
_BYTES_SAVED = 0

#: template families in LRU order, and what orchestration did with them
_FAMILIES: "OrderedDict[Hashable, TemplateFamily]" = OrderedDict()
_FAMILIES_LOCK = threading.Lock()
_TRACES = 0
_BINDS = 0

#: backend name → compile entry point (lazy imports; "numpy" is the
#: parent ufunc emission, "compiled" the JIT loop-nest emission)
_BACKENDS = ("numpy", "compiled")


def _enabled() -> bool:
    return os.environ.get("REPRO_COMPILE_CACHE", "1") != "0"


def _max_entries() -> int:
    return int(os.environ.get("REPRO_COMPILE_CACHE_SIZE", "256"))


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def _kernel_repr(kernel) -> str:
    parts = [
        "kernel",
        kernel.label,
        kernel.order,
        repr(kernel.domain),
        repr(kernel.origin),
        repr(kernel.schedule),
        repr(sorted(kernel.local_arrays.items())),
        repr((kernel.bounds.origin, kernel.bounds.tile_shape)),
        repr(sorted(kernel.origins.items())),
        repr(kernel.constituents),
    ]
    for section in kernel.sections:
        parts.append(repr(section.interval))
        for stmt, ext in section.statements:
            parts.append(repr(stmt))
            parts.append(repr(ext))
    return _SEP.join(parts)


def _node_repr(node) -> str:
    from repro.sdfg.nodes import Callback, Kernel, Tasklet

    if isinstance(node, Kernel):
        return _kernel_repr(node)
    if isinstance(node, Tasklet):
        return _SEP.join(
            ["tasklet", node.label, node.code, repr(node.inputs), node.output]
        )
    if isinstance(node, Callback):
        args = tuple(_callback_arg_repr(a) for a in node.args)
        kwargs = tuple(sorted(
            (k, _callback_arg_repr(v)) for k, v in node.kwargs.items()
        ))
        return _SEP.join(
            ["callback", node.label, str(id(node.func)), repr(args),
             repr(kwargs), repr(node.reads), repr(node.writes)]
        )
    return _SEP.join(["node", type(node).__name__, node.label])


def _callback_arg_repr(value) -> str:
    from repro.sdfg.nodes import ContainerRef, constant_key

    if isinstance(value, ContainerRef):
        return f"container:{value.name}"
    key = constant_key(value)
    return f"id:{id(value)}" if key is None else f"const:{key!r}"


def codegen_flags(instrument: bool = False, backend: str = "numpy") -> str:
    """Everything besides the SDFG that changes the generated program:
    the emission backend and, for the compiled backend, what shapes its
    loop nests (JIT engine, thread count, k-block override)."""
    flags = [f"instrument={instrument}", f"backend={backend}"]
    if backend == "compiled":
        from repro.runtime import jit

        flags.append(
            f"jit={jit.engine_name()};threads={jit.default_threads()};"
            f"kblock={jit.k_block_override()}"
        )
    return "\x1e".join(flags)


def cache_key(sdfg, instrument: bool = False, backend: str = "numpy") -> str:
    """Canonical content hash of an expanded SDFG (+ codegen flags), so
    NumPy and compiled plans for the same SDFG never collide in the
    cache."""
    import numpy as np

    h = hashlib.sha256()

    def feed(text: str) -> None:
        h.update(text.encode())
        h.update(b"\x1e")

    feed(codegen_flags(instrument, backend))
    for name, desc in sorted(sdfg.arrays.items()):
        feed(
            f"array{_SEP}{name}{_SEP}{desc.shape!r}{_SEP}"
            f"{np.dtype(desc.dtype).str}{_SEP}{desc.axes}{_SEP}"
            f"{desc.transient}"
        )
    for lp in sdfg.loops:
        feed(f"loop{_SEP}{lp.first}{_SEP}{lp.last}{_SEP}{lp.count}")
    for state in sdfg.states:
        feed(f"state{_SEP}{state.name}{_SEP}{len(state.nodes)}")
        for node in state.nodes:
            feed(_node_repr(node))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


def _compile_fn(backend: str):
    if backend == "numpy":
        from repro.sdfg.codegen import compile_sdfg

        return compile_sdfg
    if backend == "compiled":
        from repro.sdfg.codegen_compiled import compile_sdfg_compiled

        return compile_sdfg_compiled
    raise ValueError(
        f"unknown compile backend {backend!r}: expected one of {_BACKENDS}"
    )


def get_or_compile(sdfg, instrument: bool = False, backend: str = "numpy"):
    """Compile an SDFG, reusing a cached program with identical content.

    Returns the same :class:`~repro.sdfg.codegen.CompiledSDFG` object for
    content-equal SDFGs: per-kernel instrumentation counters accumulate
    across users (readers take before/after deltas). ``backend="compiled"``
    compiles through :mod:`repro.sdfg.codegen_compiled` instead; entries
    are keyed per backend.
    """
    global _BYTES_SAVED

    compile_sdfg = _compile_fn(backend)

    if _chaos._PLAN is not None:
        fault = _chaos.consult(
            "compile.fail", sdfg=getattr(sdfg, "name", "?")
        )
        if fault is not None:
            raise InjectedCompileError(
                fault.site, fault.occurrence,
                f"chaos-forced compile failure for SDFG "
                f"{getattr(sdfg, 'name', '?')!r}",
            )

    if not _enabled():
        return compile_sdfg(sdfg, instrument=instrument)

    if any(state.library_nodes for state in sdfg.states):
        sdfg.expand_library_nodes()
    tracer = _obs.get_tracer()
    with tracer.span("sdfg.compile") as sp:
        key = cache_key(sdfg, instrument, backend=backend)
        sp.set("backend", backend)
        program = _CACHE.get(key)
        if program is not None:
            _CACHE.move_to_end(key)
            _HITS[backend] = _HITS.get(backend, 0) + 1
            _BYTES_SAVED += program.runtime_bytes
            sp.add("cache_hits", 1)
            return program
        _MISSES[backend] = _MISSES.get(backend, 0) + 1
        sp.add("cache_misses", 1)
        program = compile_sdfg(sdfg, instrument=instrument)
        _CACHE[key] = program
        while len(_CACHE) > _max_entries():
            _CACHE.popitem(last=False)
        return program


# ---------------------------------------------------------------------------
# the template store
# ---------------------------------------------------------------------------


class TemplateFamily:
    """The templates traced so far for one key, e.g. a (function, owner
    class): ``templates`` is replaced, never mutated, so binders scan it
    without the lock; ``lock`` is held across trace + compile + publish so
    concurrent rank threads trace once and the rest bind."""

    __slots__ = ("lock", "templates")

    def __init__(self):
        self.lock = threading.Lock()
        self.templates: tuple = ()

    def publish(self, template) -> None:
        """Add a template (caller holds ``lock``) and evict the least
        recently used ones beyond ``REPRO_COMPILE_CACHE_SIZE``."""
        self.templates += (template,)
        with _FAMILIES_LOCK:
            excess = (
                sum(len(f.templates) for f in _FAMILIES.values())
                - _max_entries()
            )
            while excess > 0 and _FAMILIES:
                key, oldest = next(iter(_FAMILIES.items()))
                if oldest.templates:
                    oldest.templates = oldest.templates[1:]
                    excess -= 1
                if not oldest.templates:
                    del _FAMILIES[key]


def template_family(key: Hashable) -> Optional[TemplateFamily]:
    """The family for ``key`` (created on first use, refreshed in the LRU
    order), or ``None`` when ``REPRO_COMPILE_CACHE=0``."""
    if not _enabled():
        return None
    with _FAMILIES_LOCK:
        family = _FAMILIES.get(key)
        if family is None:
            family = _FAMILIES[key] = TemplateFamily()
            while len(_FAMILIES) > _max_entries():
                _FAMILIES.popitem(last=False)
        else:
            _FAMILIES.move_to_end(key)
        return family


def note_trace() -> None:
    """Count one real trace of an orchestrated program."""
    global _TRACES
    with _FAMILIES_LOCK:  # rank threads trace different families at once
        _TRACES += 1


def note_bind() -> None:
    """Count one instance bound to an existing template."""
    global _BINDS
    with _FAMILIES_LOCK:
        _BINDS += 1


def stats() -> Dict[str, object]:
    hits = sum(_HITS.values())
    misses = sum(_MISSES.values())
    total = hits + misses
    by_backend = {
        b: {"hits": _HITS.get(b, 0), "misses": _MISSES.get(b, 0)}
        for b in sorted(set(_HITS) | set(_MISSES))
    }
    return {
        "hits": hits,
        "misses": misses,
        "entries": len(_CACHE),
        "bytes_saved": _BYTES_SAVED,
        "hit_rate": (hits / total) if total else 0.0,
        "by_backend": by_backend,
        "program_traces": _TRACES,
        "program_binds": _BINDS,
        "templates": sum(len(f.templates) for f in list(_FAMILIES.values())),
    }


def merge_stats(data: Dict[str, object]) -> None:
    """Fold a worker process's counter *deltas* into this process's
    accounting (the process-based rank executor ships each worker's
    stats-since-launch over the result pipe). Hit/miss counters add per
    backend, as do the working-set reuse estimate and the program
    trace/bind counts; ``entries`` and ``templates`` count what is cached
    in *this* process and are untouched — other processes' program
    objects are not shared."""
    global _BYTES_SAVED, _TRACES, _BINDS
    by_backend = data.get("by_backend") or {}
    if by_backend:
        for backend, counts in by_backend.items():
            _HITS[backend] = _HITS.get(backend, 0) + int(
                counts.get("hits", 0)
            )
            _MISSES[backend] = _MISSES.get(backend, 0) + int(
                counts.get("misses", 0)
            )
    else:
        hits, misses = int(data.get("hits", 0)), int(data.get("misses", 0))
        if hits or misses:
            _HITS["merged"] = _HITS.get("merged", 0) + hits
            _MISSES["merged"] = _MISSES.get("merged", 0) + misses
    _BYTES_SAVED += int(data.get("bytes_saved", 0))
    _TRACES += int(data.get("program_traces", 0))
    _BINDS += int(data.get("program_binds", 0))


def reset(clear: bool = True) -> None:
    """Zero the counters (and optionally drop all cached programs and
    templates)."""
    global _BYTES_SAVED, _TRACES, _BINDS
    _HITS.clear()
    _MISSES.clear()
    _BYTES_SAVED = _TRACES = _BINDS = 0
    if clear:
        _CACHE.clear()
        with _FAMILIES_LOCK:
            _FAMILIES.clear()
