"""Compiled-program cache: a store of orchestrated-program templates in
memory, and the records of templates and plans on disk.

The template store (:func:`template_family`):
:mod:`repro.orchestration.program` traces each (function, owner class)
once, publishes the result here and *binds* every later instance to it
without building or hashing an SDFG at all; a template keeps one plan
per backend. The store only holds the families, their single-flight
locks and the counters; what a template records is the orchestration
layer's business.

A plan is keyed by the content of its SDFG: a hash, the *digest*, of a
canonical serialization of the expanded graph (array descriptors,
kernel schedules/sections/statements, control flow, tasklets; callbacks
by the ``(module, qualname)`` of their function, with array arguments by
container name and constant arguments by value), hashed again with the
codegen flags (:func:`codegen_flags`, :func:`plan_key`). Two SDFG
*objects* with equal content generate equal programs — ``tune_cutout``
replays transformation sequences onto fresh SDFG copies, transfer tuning
re-times cutouts per pattern — so :func:`get_or_compile` materialises a
plan whose image is stored under that key instead of generating it
again. A plan therefore holds no array of the run that compiled it. The
exception is a callback that no other process could find by name, or a
callback argument that is neither an array nor a value-hashable
constant: it is keyed by object identity, the orchestrated program
around it is traced per instance instead of shared, and nothing of it
goes to disk. A template keeps its digest and its record carries it, so
a restored template finds its plans under any flags without hashing, or
even decoding, its SDFG (:func:`compile_program`).

A ``compiled`` request where no C compiler is available
(:func:`repro.runtime.jit.available`), or where the one found fails
before the plan is built, gets the ``numpy`` plan, warned once per
process: :func:`get_or_compile` is the one place that decides it, for
orchestrated programs and stencil calls alike. Where no compiler is
found, nothing is lowered to C on the way. A ``compiled`` plan whose
kernels a cold start is still building runs the :func:`stand_in` plan
meanwhile: the ``numpy`` plan, made without a second consult or count.

**The disk level** ("Program records" below). Templates and plans are
kept in the kernel store's directory
(:func:`repro.runtime.jit.jit_dir`), beside the kernels and under the
same discipline — pid-suffixed temporary, atomic rename, stale
temporaries swept, a record that does not load is a miss that is
rebuilt in place, counted in the JIT's ``cache_repairs`` and warned
about once (:func:`repro.runtime.jit.publish` /
:func:`repro.runtime.jit.heal` serve kernels and records alike):

- ``repro_t_<hash of the family's names>.rec`` — the templates of one
  family (written by the orchestration layer after a trace, read by the
  first miss on that family in a later process): per template what
  binding and calling it take — the binding recipe, the digest its
  plans' keys are made from, the SDFG's scalars, callbacks and required
  containers — and the SDFG itself as a part of its own
  (:func:`pack_sdfg`), decoded only when something asks for the graph
  (:class:`PackedSDFG`);
- ``repro_p_<content key>.rec`` — the *image* of one plan
  (:class:`repro.sdfg.plan.PlanImage`: driver source, memory plan,
  kernel texts), read and written by :func:`get_or_compile`. The key
  holds the codegen flags, the kernel keys inside :mod:`repro.runtime.jit`
  hold compiler and CPU, so another host restores the program and
  rebuilds only kernels.

A record is a JSON line followed by a pickle of plain data. The JSON
line is compared with this process before the pickle is touched: the
*environment* (Python and NumPy versions, one hash over the source files
of the ``repro`` package — the code of tracer, transformations and
generators is an input of every record) and the *manifest*, the objects
the record holds by reference, each as ``(module, qualname, wrapped,
fingerprint)``: it must resolve among the modules this process has
imported, and its code must hash as it did — a function's source file;
a stencil's, read off its code object without parsing it: its source
file, the plain data
(numbers, strings, tuples, NumPy scalars) it reads from its globals and
``externals``, and the source file of each module, function or class it
names. A mismatch is a *stale* record: counted (``programs_stale``), not
used, overwritten by what is built instead. A function whose source
cannot be read (a notebook cell, ``<string>``), or a stencil that reads
anything else — a list, an array, an object only its identity tells
apart — has no fingerprint, and what names it stays in memory only.
The pickle is written and read with one allow-list (:func:`_named`:
``repro.dsl.ir``, ``repro.sdfg.*``, a few named dataclasses, NumPy
dtypes, scalar types and scalar values, builtin containers); every
other class makes the writer give up (:class:`Unpersistable`) and the
reader heal, and every function, stencil or module appears as its
number in the manifest — a callback's function inside an SDFG included
— so a record constructs nothing it was not allowed to and finds, never
rebuilds, what it holds by identity. The whole pickle is read inside
:func:`load_record`, together with whatever the caller makes of it
(``decode``), so nothing of a record can fail later than there — save
a packed SDFG, read under the same allow-list when it is first asked
for: a record that does not load is a miss, never an error. The
directory is
an execution trust boundary anyway (it holds ``.so`` files); this keeps
a damaged record from being more than a miss.

Counters (hits, misses; program traces, binds and live templates;
``programs_restored`` / ``programs_stored`` / ``programs_stale`` /
``programs_unpersistable`` — templates published from a record, written
into one, records refused, traces that no other process could use —,
``restore_bytes`` / ``restore_seconds`` and ``sdfgs_decoded``) are
surfaced through
``repro.obs`` spans and the report footer; a plan materialised from its
record counts as a **hit** of its backend. :data:`MAX_ENTRIES` bounds
the templates held in memory (LRU: 256).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import pickle
import sys
import threading
import time
import types
import warnings
import zlib
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Tuple

from repro.obs import tracer as _obs
from repro.obs.counters import Counters, register
from repro.resilience import chaos as _chaos
from repro.resilience.errors import InjectedCompileError
from repro.runtime import jit as _jit

__all__ = ["get_or_compile", "compile_program", "stand_in", "plan_key",
           "codegen_flags",
           "template_family", "TemplateFamily", "COUNTERS", "stats", "reset",
           "Manifest", "Unpersistable", "reference", "record_name",
           "load_record", "store_record", "pack_sdfg", "PackedSDFG",
           "restoring", "MAX_ENTRIES"]

_SEP = "\x1f"
#: prefix of every part of a content key that names an object by its
#: ``id()``: such a key means nothing to another process
_BY_IDENTITY = "\x1d"

#: template families in LRU order
_FAMILIES: "OrderedDict[Hashable, TemplateFamily]" = OrderedDict()
_FAMILIES_LOCK = threading.Lock()


def _with_totals(snapshot: Dict[str, object]) -> Dict[str, object]:
    """What readers see: the snapshot plus the totals over backends."""
    rows = snapshot["by_backend"].values()
    hits = sum(row["hits"] for row in rows)
    misses = sum(row["misses"] for row in rows)
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": (hits / total) if total else 0.0,
        **snapshot,
    }


#: hits and misses are counted per backend, so cross-backend A/B runs
#: report them per backend instead of as one merged number;
#: ``program_*`` is what orchestration did with the template store,
#: ``standins`` / ``plan_swaps`` the NumPy plans a cold start ran while
#: C kernels were built (:func:`stand_in`) and the switches to C,
#: ``programs_*`` / ``restore_*`` the disk level ("Program records"
#: below), ``sdfgs_decoded`` the SDFGs of restored templates something
#: asked for. ``templates`` counts what is held in *this* process: other
#: processes' templates are not shared
COUNTERS = register("compile_cache", Counters(
    sums=(
        "program_traces", "program_binds", "standins", "plan_swaps",
        "programs_restored", "programs_stored", "programs_stale",
        "programs_unpersistable", "restore_bytes", "restore_seconds",
        "sdfgs_decoded",
    ),
    local={
        "templates": lambda: sum(
            len(f.templates) for f in list(_FAMILIES.values())
        ),
    },
    family=("by_backend", ("hits", "misses")),
    derive=_with_totals,
))
stats = COUNTERS.snapshot

#: the LRU bound of the templates held in memory
MAX_ENTRIES = 256


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
        ref = reference(node.func)
        func = f"{_BY_IDENTITY}{id(node.func)}" if ref is None else repr(ref)
        return _SEP.join(
            ["callback", node.label, func, repr(args),
             repr(kwargs), repr(node.reads), repr(node.writes)]
        )
    return _SEP.join(["node", type(node).__name__, node.label])


def _callback_arg_repr(value) -> str:
    from repro.sdfg.nodes import ContainerRef, ObjectRef, constant_key

    if isinstance(value, ContainerRef):
        return f"container:{value.name}"
    if isinstance(value, ObjectRef):
        return f"object:{value.name}"
    key = constant_key(value)
    return f"{_BY_IDENTITY}{id(value)}" if key is None else f"const:{key!r}"


def codegen_flags(backend: str = "numpy") -> str:
    """Everything besides the SDFG that changes the generated program:
    the emission backend and, for the compiled backend, what shapes its
    loop nests (thread count, and the machine model whose cache size and
    balance pick tiles and decide what is recomputed)."""
    flags = [f"backend={backend}"]
    if backend == "compiled":
        from repro.obs.metrics import observed_machine_name

        flags.append(
            f"threads={_jit.default_threads()};"
            f"machine={observed_machine_name()}"
        )
    return "\x1e".join(flags)


def _content_digest(sdfg) -> Tuple[str, bool]:
    """The hash of the SDFG's content, and whether another process would
    compute the same one for this program (nothing in it is named by
    ``id()``)."""
    import numpy as np

    h = hashlib.sha256()
    portable = True

    def feed(text: str) -> None:
        nonlocal portable
        portable = portable and _BY_IDENTITY not in text
        h.update(text.encode())
        h.update(b"\x1e")

    for name, desc in sorted(sdfg.arrays.items()):
        zeroed = f"{_SEP}zeroed" if desc.zeroed else ""
        feed(
            f"array{_SEP}{name}{_SEP}{desc.shape!r}{_SEP}"
            f"{np.dtype(desc.dtype).str}{_SEP}{desc.axes}{_SEP}"
            f"{desc.transient}{zeroed}"
        )
    for lp in sdfg.loops:
        feed(f"loop{_SEP}{lp.first}{_SEP}{lp.last}{_SEP}{lp.count}")
    for state in sdfg.states:
        feed(f"state{_SEP}{state.name}{_SEP}{len(state.nodes)}")
        for node in state.nodes:
            feed(_node_repr(node))
    return h.hexdigest(), portable


def plan_key(digest: str, backend: str = "numpy") -> str:
    """The key of the plan of the SDFG whose content hashes to
    ``digest`` (:func:`_content_digest`) on ``backend``: the digest and
    the codegen flags of this process, hashed."""
    return hashlib.sha256(
        f"{codegen_flags(backend)}\x1e{digest}".encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


_WARNED = [False]


def _warn_once(reason: str) -> None:
    """Tell the process, once, that ``compiled`` runs NumPy emission."""
    if not _WARNED[0]:
        _WARNED[0] = True
        warnings.warn(
            f"compiled backend unavailable ({reason}); falling back to the "
            f"NumPy emission for this process",
            RuntimeWarning,
            stacklevel=3,
        )


def get_or_compile(sdfg, backend: str = "numpy"):
    """Compile an SDFG into a :class:`~repro.sdfg.plan.CompiledSDFG`,
    from the image stored for identical content when there is one:
    :func:`compile_program` of the SDFG alone."""
    return compile_program(_Unkeyed(sdfg), backend)


def compile_program(program, backend: str = "numpy"):
    """The plan of ``program`` on ``backend``: an SDFG's stand-in with
    the ``name`` faults are consulted under, a ``digest`` (the hash of
    the SDFG's content, :func:`_content_digest`: ``None`` until computed
    here, and kept there once it is), ``plan_inputs()``
    (:class:`~repro.sdfg.plan.PlanInputs`) and ``sdfg`` — read only when
    the digest is unknown or no image is stored under the plan's key
    (:func:`plan_key`, the digest and this process's codegen flags). An
    orchestrated program's template is one; restored from its record
    with its digest, it finds its plans on every backend and under every
    flags without its SDFG.

    ``backend="compiled"`` lowers every kernel it can to C; images are
    keyed per backend. A plan is materialised from its stored image when
    the kernel store's directory holds one (a hit for its backend); an
    image generated here (a miss) is stored. Every call makes a new plan:
    a caller that calls one again keeps it (a template keeps one per
    backend). ``compile.fail`` is consulted once per call — before the
    look-up, so a seeded spec fires at the same program whatever is
    stored.

    This is the one place that decides what a ``compiled`` request gets
    where no C compiler is (:func:`repro.runtime.jit.available`), or
    where the one found stops working before the plan is built: the
    ``numpy`` plan, and a warning, once per process.
    """
    if _chaos._PLAN is not None:
        fault = _chaos.consult("compile.fail", sdfg=program.name)
        if fault is not None:
            raise InjectedCompileError(
                fault.site, fault.occurrence,
                f"chaos-forced compile failure for SDFG {program.name!r}",
            )
    if backend == "compiled" and not _jit.available():
        _warn_once("no JIT engine: no C compiler")
        backend = "numpy"
    try:
        return _compile(program, backend)
    except _jit.JitUnavailableError as exc:  # the compiler went away since
        _warn_once(str(exc))
        return _compile(program, "numpy")


def stand_in(program):
    """The ``numpy`` plan of ``program`` that runs while the C kernels of
    its ``compiled`` plan are built in the background
    (``DynamicalCore.prepare``). The request was counted, and
    ``compile.fail`` consulted, under the backend it asked for: a
    stand-in is neither a hit nor a miss, it is counted in ``standins``,
    and its image is not stored — a later process finds the C kernels."""
    COUNTERS.add("standins")
    return _compile(program, "numpy", counted=False)


def _get_or_compile(sdfg, backend: str = "numpy"):
    """:func:`get_or_compile` without the ``compile.fail`` consult and
    the missing-compiler decision: the path of a stencil's ``numpy``
    plan, which a failed ``compiled`` stencil call re-runs on after
    consulting once (:meth:`repro.dsl.stencil.StencilObject._run`)."""
    return _compile(_Unkeyed(sdfg), backend)


class _Unkeyed:
    """An SDFG as :func:`compile_program` asks for a program: nothing is
    known before its content is hashed."""

    __slots__ = ("sdfg", "name", "digest")

    def __init__(self, sdfg):
        self.sdfg = sdfg
        self.name = getattr(sdfg, "name", "?")
        self.digest: Optional[str] = None

    def plan_inputs(self):
        from repro.sdfg.plan import PlanInputs

        return PlanInputs.of(self.sdfg)


def _expanded(sdfg):
    if any(state.library_nodes for state in sdfg.states):
        sdfg.expand_library_nodes()
    return sdfg


def _compile(program, backend: str, counted: bool = True):
    """The plan of ``program`` on ``backend``: from its stored image (a
    hit) or generated and stored (a miss). One not ``counted`` (a
    :func:`stand_in`) is neither, and its image is not stored."""
    from repro.sdfg.plan import CompiledSDFG

    tracer = _obs.get_tracer()
    if program.digest is None:
        sdfg = _expanded(program.sdfg)
        with tracer.span("sdfg.compile") as sp:
            digest, portable = _content_digest(sdfg)
            sp.set("backend", backend)
        if portable:
            program.digest = digest
    key = None if program.digest is None \
        else plan_key(program.digest, backend)
    plan = None
    if key is not None:
        with restoring() as sp:
            image = load_record(record_name("p", key))
            if image is not None:
                plan = CompiledSDFG(program.plan_inputs(), image)
                if counted:
                    COUNTERS.add("hits", label=backend)
                sp.add("plans", 1)
    if plan is None:
        from repro.sdfg.codegen import generate

        sdfg = _expanded(program.sdfg)
        with tracer.span("sdfg.compile") as sp:
            if counted:
                COUNTERS.add("misses", label=backend)
                sp.add("cache_misses", 1)
            image = generate(sdfg, backend)
            plan = CompiledSDFG(program.plan_inputs(), image)
        if key is not None and counted:
            with contextlib.suppress(Unpersistable):
                store_record(record_name("p", key), Manifest(), image)
    return plan


# ---------------------------------------------------------------------------
# the template store
# ---------------------------------------------------------------------------


class TemplateFamily:
    """The templates traced so far for one key, e.g. a (function, owner
    class): ``templates`` is replaced, never mutated, so binders scan it
    without the lock; ``lock`` is held across trace + compile + publish so
    concurrent rank threads trace once and the rest bind. ``consulted``
    says that the family's disk record has been looked at (once per
    process, by whoever first misses)."""

    __slots__ = ("lock", "templates", "consulted")

    def __init__(self):
        self.lock = threading.Lock()
        self.templates: tuple = ()
        self.consulted = False

    def publish(self, template) -> None:
        """Add a template (caller holds ``lock``) and evict the least
        recently used ones beyond :data:`MAX_ENTRIES`."""
        self.templates += (template,)
        with _FAMILIES_LOCK:
            excess = (
                sum(len(f.templates) for f in _FAMILIES.values())
                - MAX_ENTRIES
            )
            while excess > 0 and _FAMILIES:
                key, oldest = next(iter(_FAMILIES.items()))
                if oldest.templates:
                    oldest.templates = oldest.templates[1:]
                    excess -= 1
                if not oldest.templates:
                    del _FAMILIES[key]


def template_family(key: Hashable) -> TemplateFamily:
    """The family for ``key`` (created on first use, refreshed in the LRU
    order)."""
    with _FAMILIES_LOCK:
        family = _FAMILIES.get(key)
        if family is None:
            family = _FAMILIES[key] = TemplateFamily()
            while len(_FAMILIES) > MAX_ENTRIES:
                _FAMILIES.popitem(last=False)
        else:
            _FAMILIES.move_to_end(key)
        return family


# ---------------------------------------------------------------------------
# program records: the disk level behind both levels above
# ---------------------------------------------------------------------------
#
# A record is one file of the kernel store's directory: a JSON line — the
# environment it was written in and its *manifest*, the objects it holds
# by reference as ``(module, qualname, wrapped, fingerprint)`` — followed
# by a pickle of plain data in which those objects appear as their
# manifest index. Nothing of the pickle is looked at before the JSON line
# has been compared with this process.

#: where records are read and written; ``None``: beside the kernels, in
#: :func:`repro.runtime.jit.jit_dir` (the test suite points it at a
#: directory of its own per test — it may not exist yet)
RECORDS_DIR: Optional[str] = None

_FORMAT = 2
_ENVIRONMENT: Optional[List[str]] = None
#: source file → content hash (``None``: unreadable), read once per process
_FILE_HASHES: Dict[str, Optional[str]] = {}
#: writers of one process take turns (their temporaries share a name)
_STORE_LOCK = threading.Lock()


class Unpersistable(Exception):
    """Something a record would have to name cannot be found again by
    another process: the program stays in memory only."""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def _file_hash(path: str) -> Optional[str]:
    """Content hash of a source file; ``None`` when there is no such
    file to read (a notebook cell, ``<string>``, a relative path seen
    from another directory)."""
    if path not in _FILE_HASHES:
        try:
            with open(path, "rb") as fh:
                _FILE_HASHES[path] = _sha(fh.read())
        except OSError:
            _FILE_HASHES[path] = None
    return _FILE_HASHES[path]


def _environment() -> List[str]:
    """What every record depends on without naming it: the interpreter,
    NumPy, and the ``repro`` package itself — tracer, transformations,
    code generators — as one hash over its source files."""
    global _ENVIRONMENT
    if _ENVIRONMENT is None:
        import numpy

        import repro

        tree = hashlib.sha256()
        root = os.path.dirname(os.path.abspath(repro.__file__))
        for folder, subfolders, files in os.walk(root):
            subfolders.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    tree.update(os.path.relpath(path, root).encode())
                    tree.update((_file_hash(path) or "").encode())
        _ENVIRONMENT = [sys.version, numpy.__version__, tree.hexdigest()[:32]]
    return _ENVIRONMENT


def _resolve(module: str, qualname: str, wrapped: bool):
    """The object a reference names, among the modules this process has
    imported (a record never makes it import one)."""
    obj = sys.modules[module]
    for part in qualname.split(".") if qualname else ():
        obj = getattr(obj, part)
    return obj.__wrapped__ if wrapped else obj


def reference(obj) -> Optional[Tuple[str, str, bool]]:
    """``(module, qualname, wrapped)`` under which any process that has
    imported the module finds *this very object* — ``wrapped``: as the
    ``__wrapped__`` of what the name holds (a decorated method, whose
    name is the program and not the function) — or ``None``: a lambda, a
    function or stencil made inside a function, a rebound name."""
    if isinstance(obj, types.ModuleType):
        name = obj.__name__
        return (name, "", False) if sys.modules.get(name) is obj else None
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not isinstance(module, str) or not isinstance(qualname, str):
        return None
    for ref in ((module, qualname, False), (module, qualname, True)):
        try:
            if _resolve(*ref) is obj:
                return ref
        except (KeyError, AttributeError):
            pass
    if module == "builtins":  # ``module``, ``function``: named in ``types``
        for name, value in vars(types).items():
            if value is obj:
                return ("types", name, False)
    return None


def _fingerprint(obj) -> Optional[str]:
    """What of an object's *code* a record depends on: what a stencil is
    made of (:func:`_stencil_parts`), the source file of a function
    (``None`` when that cannot be read: an edit would go unnoticed); a
    class or a module is only ever asked for its identity."""
    from repro.dsl.stencil import StencilObject

    if isinstance(obj, StencilObject):
        try:
            return _sha(repr(_stencil_parts(obj)).encode())
        except Unpersistable:
            return None
    if isinstance(obj, types.FunctionType):
        return _file_hash(obj.__code__.co_filename)
    return ""


def _stencil_parts(stencil) -> list:
    """What a stencil is made of, read off its code without parsing it:
    its name, its definition (:func:`_code_parts`) and its ``externals``
    under the rules of :func:`_value_part`. Hashes of source files, not
    their paths: a checkout can be moved."""
    return [
        stencil.name,
        _code_parts(stencil.__wrapped__, stencil.externals),
        [(name, _value_part(value))
         for name, value in sorted(stencil.externals.items())],
    ]


def _code_names(code: types.CodeType):
    """The names a code object reads, nested code objects included."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_names(const)


def _code_parts(func, externals: dict) -> list:
    """A stencil's definition: the hash of its source file and every name
    its code reads, valued in the first namespace that has it —
    externals, then the stencil's globals, as the front end looks them
    up."""
    code = func.__code__
    source = _file_hash(code.co_filename)
    if source is None or func.__closure__:
        raise Unpersistable(
            f"{func.__qualname__} is a closure or has no readable source"
        )
    parts = [source]
    for name in sorted(set(_code_names(code))):
        for space in (externals, func.__globals__):
            if name in space:
                parts.append((name, _value_part(space[name])))
                break
    return parts


#: values a stencil may read by value (NumPy scalars too)
_PLAIN = (bool, int, float, complex, str, bytes, type(None))


def _value_part(value):
    """A value a stencil reads: plain data and tuples of it by value, a
    module, function or class by its source file's hash, a name of the
    DSL itself by that name; anything else is :class:`Unpersistable`."""
    import numpy as np

    from repro.dsl import builtins as dsl

    if isinstance(value, _PLAIN + (np.generic,)):
        return (type(value).__name__, repr(value))
    if isinstance(value, tuple):
        return tuple(_value_part(item) for item in value)
    if isinstance(value, types.FunctionType):
        path = value.__code__.co_filename
    elif isinstance(value, types.ModuleType):
        path = getattr(value, "__file__", None)
    elif isinstance(value, type):
        path = getattr(sys.modules.get(value.__module__), "__file__", None)
    else:
        for name, known in vars(dsl).items():
            if known is value:
                return ("dsl", name)
        raise Unpersistable(
            f"a stencil reads a {type(value).__name__}, which has no value "
            "another process could compare"
        )
    if path is None:  # a builtin: part of the interpreter
        return ("builtin", getattr(value, "__name__", ""))
    digest = _file_hash(path)
    if digest is None:
        raise Unpersistable(f"{path} cannot be read")
    return ("source", digest)


class Manifest:
    """The objects one record holds by reference, numbered in order of
    first use — after ``objects``, the live objects of a record read
    earlier: numbered as that record numbered them, its packed parts
    (:class:`PackedSDFG` of them, ``seed``) are written again as they
    are."""

    def __init__(self, objects: List[object] = ()):
        #: ``[module, qualname, wrapped, fingerprint]`` per object
        self.entries: List[list] = []
        #: id → number; the objects are kept so that no id is recycled
        self._index: Dict[int, Tuple[int, object]] = {}
        for obj in objects:
            self.index(obj)
        self.seed = objects if len(self.entries) == len(objects) else None

    def index(self, obj) -> int:
        """The number of ``obj``; :class:`Unpersistable` when no other
        process could find it."""
        known = self._index.get(id(obj))
        if known is not None:
            return known[0]
        ref = None if obj is None else reference(obj)
        fingerprint = None if ref is None else _fingerprint(obj)
        if fingerprint is None:
            raise Unpersistable(
                f"{type(obj).__name__} "
                f"{getattr(obj, '__qualname__', obj)!r} is not the "
                "value of a module-level name with readable source"
            )
        self._index[id(obj)] = (len(self.entries), obj)
        self.entries.append([*ref, fingerprint])
        return len(self.entries) - 1


#: the classes a record may construct, besides everything in
#: ``repro.dsl.ir`` and ``repro.sdfg.*``
_ALLOWED = {
    ("repro.dsl.bounds", "GridBounds"),
    ("repro.dsl.extents", "Extent"),
    ("repro.dsl.builtins", "AxisAnchor"),
    ("repro.dsl.builtins", "RegionAxisSpec"),
    ("repro.dsl.builtins", "RegionSpec"),
    ("numpy", "dtype"),
    *(("builtins", name) for name in (
        "bool", "int", "float", "complex", "str", "bytes", "tuple", "list",
        "dict", "set", "frozenset", "range", "slice", "type", "object",
    )),
}


def _named(module: str, name: str):
    """The object a record's pickle may name as ``module.name`` — a
    class of the allow-list, a NumPy scalar type, the function NumPy
    pickles a scalar *value* with — or ``None``."""
    import numpy as np

    if (
        (module, name) in _ALLOWED
        or module == "repro.dsl.ir"
        or module.startswith("repro.sdfg.")
    ):
        found = getattr(importlib.import_module(module), name, None)
        return found if isinstance(found, type) else None
    if module == "numpy":
        found = getattr(np, name, None)
        scalar_type = isinstance(found, type) and issubclass(found, np.generic)
        return found if scalar_type else None
    scalar = np.float64(0).__reduce__()[0]  # (moved between NumPy 1 and 2)
    if (module, name) == (scalar.__module__, scalar.__name__):
        return scalar
    return None


def _by_reference(number: int):
    """What a record's pickle names in place of an object it holds by
    identity: :class:`_Unpickler` reads this name as "the object the
    manifest lists at ``number``"."""
    raise TypeError("only meaningful inside a program record")


class _Pickler(pickle.Pickler):
    """Writes what :class:`_Unpickler` will accept: classes of the
    allow-list by name, every other callable — a callback's function,
    a stencil — as its number in ``manifest``, nothing else."""

    def __init__(self, file, manifest: Manifest):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.manifest = manifest

    def reducer_override(self, obj):
        if not callable(obj) or obj is _by_reference or obj is type(None):
            return NotImplemented  # (pickle writes ``type(None)`` for that)
        module = getattr(obj, "__module__", None)
        name = getattr(obj, "__qualname__", None)
        if isinstance(module, str) and isinstance(name, str) \
                and _named(module, name) is obj:
            return NotImplemented
        if isinstance(obj, type):
            raise Unpersistable(
                f"{module}.{name} is outside the allow-list of program "
                "records"
            )
        return _by_reference, (self.manifest.index(obj),)


class _Unpickler(pickle.Unpickler):
    def __init__(self, file, objects: List[object]):
        super().__init__(file)
        self.objects = objects

    def find_class(self, module, name):
        if (module, name) == (__name__, _by_reference.__name__):
            return self.objects.__getitem__
        found = _named(module, name)
        if found is None:
            raise pickle.UnpicklingError(
                f"record names {module}.{name}, which is outside the "
                "allow-list of program records"
            )
        return found


def record_name(level: str, identity: str) -> str:
    """The file name of a record: ``repro_t_*`` a template family's,
    ``repro_p_*`` a plan's."""
    return f"repro_{level}_{_sha(identity.encode())}.rec"


def _record_path(name: str) -> str:
    return os.path.join(RECORDS_DIR or _jit.jit_dir(), name)


def store_record(name: str, manifest: Manifest, payload) -> bool:
    """Write record ``name`` — ``payload``, plain data in which the
    objects of ``manifest`` appear as their number, or (functions)
    join it now — under the kernel store's discipline.
    :class:`Unpersistable` when ``payload`` holds something a record may
    not. A directory that cannot be written costs the next process its
    start-up, not this one its run: warned, ``False``."""
    body = io.BytesIO()
    _Pickler(body, manifest).dump(payload)
    header = json.dumps({
        "format": _FORMAT,
        "environment": _environment(),
        "manifest": manifest.entries,
    }).encode() + b"\n"

    def write(tmp: str) -> None:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(body.getbuffer())

    try:
        path = _record_path(name)
        with _STORE_LOCK:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _jit.publish(path, write)
    except OSError as exc:
        warnings.warn(
            f"program records cannot be written ({exc}): later processes "
            "will trace and lower again",
            _jit.JitCacheWarning, stacklevel=2,
        )
        return False
    return True


def pack_sdfg(manifest: Manifest, sdfg) -> bytes:
    """An SDFG as a part of a record that is read only when asked for
    (:class:`PackedSDFG`): pickled under the record's own allow-list and
    ``manifest``, which the record's header carries, and compressed —
    what a restored process holds of it until then (an eighth of the
    pickle)."""
    body = io.BytesIO()
    _Pickler(body, manifest).dump(sdfg)
    return zlib.compress(body.getbuffer())


class PackedSDFG:
    """The SDFG of a restored template, still packed: :meth:`load` reads
    it with the allow-list and the live objects of its record's manifest
    (counted, ``sdfgs_decoded``). What binding and calling a restored
    program take is in the record beside it; only a traced call's byte
    table, an injected ``stencil.nanflip``, a plan whose image is not
    stored and the linter ask for the graph."""

    __slots__ = ("data", "objects")

    def __init__(self, data: bytes, objects: List[object]):
        self.data = data
        self.objects = objects

    def load(self):
        COUNTERS.add("sdfgs_decoded")
        body = io.BytesIO(zlib.decompress(self.data))
        return _Unpickler(body, self.objects).load()


def load_record(name: str, decode=None):
    """The payload of record ``name`` — ``decode(payload, objects)`` of
    it when given, ``objects`` being the live objects its manifest
    names, by number — or ``None``: there is none, it is *stale*
    (written in another record format or by another Python, NumPy or
    source tree, or something it names has changed its code since:
    counted, and overwritten by what the caller builds instead) or it is
    *damaged* (does not parse, names
    something that no longer resolves or that records may not construct,
    ``decode`` cannot make sense of it: healed like a damaged kernel)."""
    try:
        path = _record_path(name)
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    try:
        line, _, body = data.partition(b"\n")
        header = json.loads(line)
        stale = header["format"] != _FORMAT \
            or header["environment"] != _environment()
        objects = []
        for module, qualname, wrapped, fingerprint in header["manifest"]:
            if stale:
                break
            obj = _resolve(module, qualname, wrapped)
            stale = _fingerprint(obj) != fingerprint
            objects.append(obj)
        if stale:
            COUNTERS.add("programs_stale")
            return None
        payload = _Unpickler(io.BytesIO(body), objects).load()
        if decode is not None:
            payload = decode(payload, objects)
    except Exception as exc:  # whatever a damaged file can raise
        _jit.heal(path, exc)
        return None
    COUNTERS.add("restore_bytes", len(data))
    return payload


@contextlib.contextmanager
def restoring():
    """The ``orchestrate.restore`` span around reading a record and
    making what it holds live — a span of its own, outside the
    ``orchestrate.build`` / ``sdfg.compile`` prefixes that account for
    tracing and code generation — timed into ``restore_seconds`` whether
    or not tracing is on."""
    t0 = time.perf_counter()
    try:
        with _obs.get_tracer().span("orchestrate.restore") as sp:
            yield sp
    finally:
        COUNTERS.add("restore_seconds", time.perf_counter() - t0)


def reset(clear: bool = True) -> None:
    """Zero the counters (and optionally drop all templates, and the
    plans they keep). Memory only: the records under the kernel store's
    directory stay, so what is dropped here is restored, not traced or
    compiled, the next time it is asked for."""
    COUNTERS.reset()
    if clear:
        with _FAMILIES_LOCK:
            _FAMILIES.clear()
