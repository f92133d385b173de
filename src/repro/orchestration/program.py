"""Orchestration: build one SDFG from object-oriented model code.

``@orchestrate`` turns a function or method into an
:class:`OrchestratedProgram`. The first call of a (function, owner class)
*traces* it: the Python source is closure-resolved (Fig. 6) and
preprocessed (constant propagation, unrolling, dead branches), then walked
statement by statement:

- calls to ``@stencil`` objects insert StencilComputation library nodes
  (``__sdfg_node__`` protocol, Sec. V-B);
- calls to other orchestrated functions/methods are inlined recursively;
- any other call becomes an automatic :class:`Callback` with ``__pystate``
  serialization;
- remaining counted ``for`` loops become SDFG loop regions;
- scalar argument arithmetic becomes Tasklets.

Arrays reached through different names/attributes are consolidated into
one container by object identity ("call-tree analysis detects and
consolidates multiple instances of the same array object").

A module's *temporaries* are not arrays at all: ``self.tmp =
transient(shape)`` declares storage-less scratch (:class:`Transient`),
and wherever a field argument resolves to one the program gets an SDFG
transient — consolidated by identity like an array, so a declaration
handed down into an inlined callee is one container — that every call
draws from the buffer arena and returns. Its contents are undefined on
entry and lost on return; a callback cannot receive one.

The trace also records its *provenance*: every value it read from outside
the function bodies — instance attributes, call arguments, module
globals — as a step from an earlier read, with what was assumed about it.
That makes the traced program a :class:`_Template` any later instance can
be **bound** to: the reads are replayed on the new instance, the
assumptions checked, and the compiled plan is called with the arrays
found along the recorded paths — no parsing, no SDFG, no hashing. An
instance that breaks an assumption is traced like the first one and
becomes another template.

Templates outlive the process: a traced template joins its family's
*record* in the kernel store's directory
(:mod:`repro.runtime.compile_cache`, "Program records"), and the first
miss on a family in a later process loads that record, publishes what it
holds and binds — through the same :meth:`_Template.bind` — instead of
tracing. The guards are re-checked on the live instance exactly as for a
template traced a moment ago; what they cannot see, the *code* a trace
walked, is in the record's manifest and compared before anything of the
record is used.
"""

from __future__ import annotations

import ast
import threading
import types
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dsl import backends as _backends
from repro.dsl.backend_numpy import GridBounds
from repro.dsl.stencil import StencilObject
from repro.obs import tracer as _obs
from repro.orchestration.closure import ClosureError, closure_template
from repro.orchestration.preprocessor import preprocess_function, try_const_eval
from repro.resilience import chaos as _chaos
from repro.runtime import compile_cache as _cache
from repro.sdfg.analysis import memory_footprint
from repro.sdfg.graph import SDFG, SDFGState
from repro.sdfg.nodes import (
    Callback,
    ContainerRef,
    StencilComputation,
    Tasklet,
    constant_key,
)

_TRACER = _obs.get_tracer()


class OrchestrationError(ValueError):
    pass


_CONSTANT_TYPES = (bool, int, float, str, type(None))
_FLOAT_TYPES = (float, np.floating)


class Transient:
    """Scratch a module declares but does not own: a ``shape`` and a
    ``dtype``, no buffer. Orchestrated programs that pass it to a stencil
    allocate it per call as an SDFG transient; the object's identity is
    what makes two uses the same container."""

    __slots__ = ("shape", "dtype", "__weakref__")

    def __init__(self, shape, dtype=np.float64):
        self.shape = tuple(int(n) for n in shape)
        self.dtype = np.dtype(dtype)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __repr__(self) -> str:
        return f"transient({self.shape}, {self.dtype.name})"


#: the declaration as modules spell it: ``self.tmp = transient(shape)``
transient = Transient


class _ScalarAlias:
    """A runtime scalar passed down into an inlined function under a new
    parameter name: reads resolve to the *outer* scalar name so updated
    values flow in on every call without rebuilding."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"_ScalarAlias({self.name!r})"


def _inline_target(obj) -> Optional[Callable]:
    """The orchestrated function that calling ``obj`` inlines, if any: a
    program, a module object whose ``__call__`` is orchestrated, or a
    (bound) function that ``orchestrate`` marked."""
    if isinstance(obj, OrchestratedProgram):
        return obj.func
    call_attr = type(obj).__dict__.get("__call__")
    if isinstance(call_attr, OrchestratedProgram):
        return call_attr.func
    return getattr(obj, "__wrapped_orchestrate__", None)


def _argument_key(value):
    if isinstance(value, np.ndarray):
        return id(value)
    if isinstance(value, _FLOAT_TYPES):
        return float
    if isinstance(value, _CONSTANT_TYPES):
        return (type(value), value)
    return id(value)


def _guard_of(value) -> Tuple[str, Any]:
    """What a trace assumes about a value it read."""
    key = constant_key(value)
    if key is not None:
        return ("const", key)
    if isinstance(value, np.ndarray):
        return ("array", (value.shape, value.dtype, value.strides))
    if isinstance(value, Transient):
        return ("transient", (value.shape, value.dtype))
    if isinstance(value, (list, tuple)):
        return ("sequence", (type(value), len(value)))
    return ("type", type(value))


def _guard_holds(guard: Tuple[str, Any], value, values: List[Any]) -> bool:
    kind, ref = guard
    if kind == "const":
        return constant_key(value) == ref
    if kind == "array":
        return (
            isinstance(value, np.ndarray)
            and (value.shape, value.dtype, value.strides) == ref
        )
    if kind == "transient":
        return (
            isinstance(value, Transient)
            and (value.shape, value.dtype) == ref
        )
    if kind == "sequence":
        return type(value) is ref[0] and len(value) == ref[1]
    if kind == "type":
        return type(value) is ref
    if kind == "same":  # the object an earlier read produced
        return value is values[ref]
    if kind == "float":  # a runtime scalar: any value
        return isinstance(value, _FLOAT_TYPES)
    if kind == "is":
        return value is ref()
    return _inline_target(value) is ref  # "inline"


class _Template:
    """One traced program, and what binding another instance to it takes.

    ``reads`` lists, in trace order, every value the trace took from
    outside the function bodies as ``(parent, kind, key)``: a root
    (``self``, a call argument by parameter name, a global of one of the
    traced functions by ``(function, name)``) or an ``attr``/``item`` step
    from the read at index ``parent``. ``guards`` holds the assumption
    made about each: constants, tuples and ``GridBounds`` by value; arrays
    by shape, dtype and strides; a repeated object as *the same* object as
    the earlier read (which is how aliasing between array paths is
    pinned); transient declarations by shape and dtype; lists and tuples
    by type and length; runtime scalars as floats; stencils and callback
    functions by identity (weakly); inlined callees by their function;
    anything merely walked through by type. ``containers`` names the read
    behind each non-transient container and ``transients`` the read
    behind each declared transient, which has no array to bind. Nothing
    here references the traced instance or its arrays.

    A trace that consumed something it cannot re-read — an array or
    object reached outside the instance/arguments/globals, an opaque
    callback argument, a closure — has ``reads is None``: it serves the
    instance that traced it and is never shared.
    """

    def __init__(self, sdfg: SDFG, runtime_scalars: List[str],
                 reads: Optional[tuple] = None, guards: tuple = (),
                 containers: tuple = (), transients: tuple = (),
                 arg_names: frozenset = frozenset(),
                 has_instance: bool = False, sources: tuple = ()):
        self.sdfg = sdfg
        self.runtime_scalars = runtime_scalars
        self.reads = reads
        self.guards = guards
        self.containers = containers
        self.transients = transients
        self.arg_names = arg_names
        self.has_instance = has_instance
        #: the functions the trace walked or inlined and the stencils it
        #: called: the code no guard sees, for the record's manifest
        self.sources = sources
        #: codegen flags → compiled plan, shared by every binding
        self._plans: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self._kernel_outputs: Optional[tuple] = None

    def kernel_outputs(self) -> tuple:
        """``(label, names of the containers it writes)`` per kernel, in
        program order (where an injected ``stencil.nanflip`` can land)."""
        if self._kernel_outputs is None:
            self._kernel_outputs = tuple(
                (kernel.label, tuple(kernel.written_fields()))
                for kernel in self.sdfg.all_kernels()
            )
        return self._kernel_outputs

    def plan(self, instrument: bool, backend: str):
        flags = _cache.codegen_flags(instrument, backend)
        plan = self._plans.get(flags)
        if plan is None:
            with self._lock:
                plan = self._plans.get(flags)
                if plan is None:
                    plan = self._plans[flags] = _cache.get_or_compile(
                        self.sdfg, instrument=instrument, backend=backend
                    )
        return plan

    def encode(self, manifest: "_cache.Manifest") -> Dict[str, Any]:
        """This template as plain data for its family's record: what it
        holds by identity — stencils, callback and inlined functions,
        the functions whose globals it read, types — as numbers of
        ``manifest`` (:class:`~repro.runtime.compile_cache.Unpersistable`
        when one of them has no name another process could find it
        under, or when the template is private to its instance)."""
        if self.reads is None:
            raise _cache.Unpersistable("the trace is private to its instance")
        index = manifest.index
        # (as the record's pickle will: asked here, a callback nobody
        # else could find costs the family this template, not its record)
        for node in self.sdfg.all_nodes():
            if isinstance(node, Callback):
                index(node.func)

        def by_number(kind, ref):
            if kind == "is":
                return index(ref())
            if kind in ("type", "inline"):
                return index(ref)
            if kind == "sequence":  # (its class, its length)
                return index(ref[0]), ref[1]
            return ref

        return {
            "sources": [index(source) for source in self.sources],
            "reads": tuple(
                (parent, kind, (index(key[0]), key[1]) if kind == "free"
                 else key)
                for parent, kind, key in self.reads
            ),
            "guards": tuple(
                (kind, by_number(kind, ref)) for kind, ref in self.guards
            ),
            "containers": self.containers,
            "transients": self.transients,
            "arg_names": self.arg_names,
            "has_instance": self.has_instance,
            "runtime_scalars": self.runtime_scalars,
            "sdfg": self.sdfg,
        }

    @classmethod
    def decode(cls, data: Dict[str, Any], objects: List[Any]) -> "_Template":
        """The template :meth:`encode` wrote, around the live ``objects``
        of its record's manifest."""
        def by_object(kind, ref):
            if kind == "is":
                return weakref.ref(objects[ref])
            if kind in ("type", "inline"):
                return objects[ref]
            if kind == "sequence":
                return objects[ref[0]], ref[1]
            return ref

        guards = tuple(
            (kind, by_object(kind, ref)) for kind, ref in data["guards"]
        )
        reads = tuple(
            (parent, kind, (objects[key[0]], key[1]) if kind == "free"
             else key)
            for parent, kind, key in data["reads"]
        )
        return cls(
            data["sdfg"], data["runtime_scalars"], reads, guards,
            data["containers"], data["transients"], data["arg_names"],
            data["has_instance"],
            tuple(objects[at] for at in data["sources"]),
        )

    def bind(self, instance, bound: Dict[str, Any]
             ) -> Optional[Dict[str, np.ndarray]]:
        """Replay the reads on ``instance``/``bound``; the container →
        array mapping when every guard holds, else ``None``."""
        if (
            self.reads is None
            or bound.keys() != self.arg_names
            or (instance is not None) != self.has_instance
        ):
            return None
        values: List[Any] = []
        try:
            for (parent, kind, key), guard in zip(self.reads, self.guards):
                if kind == "attr":
                    value = getattr(values[parent], key)
                elif kind == "item":
                    value = values[parent][key]
                elif kind == "arg":
                    value = bound[key]
                elif kind == "free":
                    value = key[0].__globals__[key[1]]
                else:
                    value = instance
                if not _guard_holds(guard, value, values):
                    return None
                values.append(value)
        except (AttributeError, LookupError, TypeError):
            return None
        arrays = {name: values[index] for name, index in self.containers}
        distinct = {id(array) for array in arrays.values()}
        distinct.update(id(values[index]) for index in self.transients)
        # two containers are two objects: the trace would have merged them
        if len(distinct) != len(arrays) + len(self.transients):
            return None
        return arrays


class _Binding:
    """One program instance bound to a template for one set of call
    arguments: the arrays its containers resolve to, the plan to call and
    the backend that plan was asked of (``None``: no plan yet). ``held``
    keeps the arguments alive so the ids in the binding's key cannot be
    recycled."""

    __slots__ = ("template", "arrays", "plan", "held", "backend")

    def __init__(self, template: _Template, arrays, held,
                 plan=None, backend: Optional[str] = None):
        self.template = template
        self.arrays = arrays
        self.held = held
        self.plan = plan
        self.backend = backend


class _Builder:
    """Builds one whole-program SDFG, recording where every outside value
    it consumed came from (see :class:`_Template`)."""

    def __init__(self, name: str):
        self.sdfg = SDFG(name)
        self.container_of: Dict[int, str] = {}
        #: container → the array, or the transient declaration, behind it
        self.field_of: Dict[str, Any] = {}
        self.runtime_scalars: List[str] = []
        self._scalar_counter = 0
        self._state: Optional[SDFGState] = None
        self._label = name
        # provenance: reads[i] = (parent, kind, key) produced values[i]
        # under guards[i]; keeping the values also keeps their ids unique
        # for the duration of the trace
        self.reads: List[Tuple[int, str, Any]] = []
        self.guards: List[Tuple[str, Any]] = []
        self._values: List[Any] = []
        self._read_index: Dict[Tuple[int, str, Any], int] = {}
        #: id(object) → the first read that produced it
        self._where: Dict[int, int] = {}
        #: containers the trace itself created (``dict(...)``, tuples)
        self._local: Dict[int, Any] = {}
        #: why the result cannot be shared, once something made it so
        self.unshareable: Optional[str] = None
        self._arg_names: frozenset = frozenset()
        self._has_instance = False
        #: the functions walked and the stencils called, in first-use order
        self.sources: Dict[Any, None] = {}

    # ---- provenance -----------------------------------------------------

    def _mark_unshareable(self, reason: str) -> None:
        if self.unshareable is None:
            self.unshareable = reason

    def _record(self, parent: int, kind: str, key, value):
        ident = (parent, kind, key)
        index = self._read_index.get(ident)
        if index is not None:
            if value is not self._values[index] and \
                    constant_key(value) is None:
                self._mark_unshareable(
                    f"{kind} {key!r} yields a new object on every read"
                )
            return value
        index = len(self.reads)
        self._read_index[ident] = index
        self.reads.append(ident)
        self._values.append(value)
        guard = _guard_of(value)
        if guard[0] != "const":
            first = self._where.setdefault(id(value), index)
            if first != index:
                guard = ("same", first)
        self.guards.append(guard)
        return value

    def _read(self, owner, kind: str, key):
        """``owner.key`` / ``owner[key]``, recorded as a step from the read
        that produced ``owner``. An owner the trace cannot re-reach (and
        did not derive from guarded constants itself) makes the program
        unshareable."""
        value = getattr(owner, key) if kind == "attr" else owner[key]
        parent = self._where.get(id(owner))
        replayable = (
            parent is not None
            and not isinstance(owner, np.ndarray)  # a view per subscript
            and (kind == "attr" or constant_key(key) is not None)
        )
        if replayable:
            return self._record(parent, kind, key, value)
        if constant_key(owner) is None and id(owner) not in self._local:
            self._mark_unshareable(
                f"{kind} {key!r} read from a {type(owner).__name__} the "
                "trace cannot re-reach"
            )
        return value

    def _keep_local(self, value):
        self._local[id(value)] = value
        return value

    def _pin(self, obj) -> None:
        """``obj`` itself (a stencil, a callback function) is part of the
        program: later instances must reach the very same object."""
        index = self._where.get(id(obj))
        try:
            guard = ("is", weakref.ref(obj))
        except TypeError:
            index = None
        if index is None:
            self._mark_unshareable(
                f"{type(obj).__name__} object used by identity"
            )
        else:
            self.guards[index] = guard

    def trace(self, func: Callable, instance: Any, args: Tuple,
              kwargs: Dict) -> None:
        """Trace a top-level call: the instance and the call arguments are
        the roots every other read starts from."""
        self._has_instance = instance is not None
        if instance is not None:
            self._record(-1, "self", None, instance)
        node, _, _ = closure_template(func, instance is not None)
        params = [a.arg for a in node.args.args]
        bound = list(zip(params, args)) + list(kwargs.items())
        self._arg_names = frozenset(name for name, _ in bound)
        for name, value in bound:
            self._record(-1, "arg", name, value)
            if isinstance(value, _FLOAT_TYPES):
                self.guards[-1] = ("float", None)
        self.build_function(func, instance, args, kwargs, self._label)

    def template(self) -> _Template:
        containers, transients = [], []
        for name, field in self.field_of.items():
            index = self._where.get(id(field))
            if index is None:
                self._mark_unshareable(
                    f"container {name!r} is an object the trace cannot "
                    "re-reach"
                )
                break
            if isinstance(field, Transient):
                transients.append(index)
            else:
                containers.append((name, index))
        if self.unshareable is not None:
            return _Template(self.sdfg, self.runtime_scalars)
        return _Template(
            self.sdfg, self.runtime_scalars, tuple(self.reads),
            tuple(self.guards), tuple(containers), tuple(transients),
            self._arg_names, self._has_instance, tuple(self.sources),
        )

    # ---- containers -----------------------------------------------------

    @property
    def array_of(self) -> Dict[str, np.ndarray]:
        """The array behind each non-transient container."""
        return {
            name: field for name, field in self.field_of.items()
            if isinstance(field, np.ndarray)
        }

    def register_field(self, field, hint: str) -> str:
        """The container of an array or a :class:`Transient` declaration:
        one per object, however many names and attributes reach it."""
        key = id(field)
        if key in self.container_of:
            return self.container_of[key]
        name = hint.lstrip("_") or "arr"
        base, n = name, 0
        while name in self.sdfg.arrays:
            n += 1
            name = f"{base}_{n}"
        axes = {3: "IJK", 2: "IJ", 1: "K"}.get(field.ndim)
        if axes is None:
            raise OrchestrationError(
                f"field {hint!r} has unsupported rank {field.ndim}"
            )
        self.sdfg.add_array(
            name, field.shape, field.dtype.type, axes=axes,
            transient=isinstance(field, Transient),
        )
        self.container_of[key] = name
        self.field_of[name] = field
        return name

    # ---- states -----------------------------------------------------------

    def state(self, label: str) -> SDFGState:
        if self._state is None:
            self._state = self.sdfg.add_state(
                f"s{len(self.sdfg.states)}_{label}"
            )
        return self._state

    def cut_state(self) -> None:
        self._state = None

    # ---- function walking ---------------------------------------------------

    def build_function(
        self,
        func: Callable,
        instance: Any,
        args: Tuple,
        kwargs: Dict,
        label: str,
    ) -> None:
        node, paths, loaded = closure_template(func, instance is not None)
        self.sources[func] = None
        # lowest priority: module globals and closure freevars (stencil
        # objects, helper modules, shared arrays)
        globs = getattr(func, "__globals__", {})
        env: Dict[str, Any] = dict(globs)
        for name in loaded:
            if name in globs:
                self._record(-1, "free", (func, name), globs[name])
        closure_cells = getattr(func, "__closure__", None)
        if closure_cells:
            # cells belong to one function object, not to its class
            self._mark_unshareable(f"{label} is a closure")
            for fname, cell in zip(func.__code__.co_freevars, closure_cells):
                try:
                    env[fname] = cell.cell_contents
                except ValueError:  # pragma: no cover
                    pass
        for name, path in paths:
            value = instance
            try:
                for attr in path:
                    value = self._read(value, "attr", attr)
            except AttributeError as exc:
                raise ClosureError(
                    f"cannot resolve self.{'.'.join(path)}: {exc}"
                ) from exc
            env[name] = value
        if instance is not None:
            env["self"] = instance  # method-call resolution (self.foo(...))
        # bind call arguments
        params = [a.arg for a in node.args.args]
        defaults = node.args.defaults
        default_values = {}
        for pname, dnode in zip(params[len(params) - len(defaults):], defaults):
            ok, val = try_const_eval(dnode, {})
            if ok:
                default_values[pname] = val
        bound = dict(default_values)
        bound.update(dict(zip(params, args)))
        bound.update(kwargs)
        missing = [p for p in params if p not in bound]
        if missing:
            raise OrchestrationError(f"{label}: missing arguments {missing}")
        env.update(bound)

        constants = {
            k: v for k, v in env.items() if isinstance(v, _CONSTANT_TYPES)
        }
        # top-level float/int arguments stay runtime scalars unless they are
        # structural (used in loop bounds the preprocessor must fold)
        runtime = {
            k for k in bound if isinstance(env.get(k), _FLOAT_TYPES)
        }
        for k in runtime:
            constants.pop(k, None)
            if k not in self.runtime_scalars:
                self.runtime_scalars.append(k)
        # aliased runtime scalars from an enclosing inline (keep the outer
        # name; never treat the build-time value as a constant)
        for k in bound:
            if isinstance(env.get(k), _ScalarAlias):
                constants.pop(k, None)

        processed = preprocess_function(node, constants)
        outer = self._label
        self._label = label
        try:
            self._walk_block(processed.body, env, constants)
        finally:
            self._label = outer

    # ------------------------------------------------------------------
    def _walk_block(self, stmts, env, constants) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Expr):
                if isinstance(stmt.value, ast.Constant):
                    continue  # docstring
                if isinstance(stmt.value, ast.Call):
                    self._handle_call(stmt.value, env, constants)
                    continue
                raise OrchestrationError(
                    f"line {stmt.lineno}: unsupported expression statement"
                )
            if isinstance(stmt, ast.Assign):
                self._handle_assign(stmt, env, constants)
                continue
            if isinstance(stmt, ast.For):
                self._handle_loop(stmt, env, constants)
                continue
            if isinstance(stmt, ast.If):
                raise OrchestrationError(
                    f"line {stmt.lineno}: data-dependent branch could not be "
                    "resolved at orchestration time; wrap it in a callback"
                )
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Return):
                if stmt.value is None or (
                    isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is None
                ):
                    continue
                raise OrchestrationError(
                    "orchestrated programs mutate arrays and return None"
                )
            raise OrchestrationError(
                f"line {stmt.lineno}: unsupported statement "
                f"{type(stmt).__name__}"
            )

    # ------------------------------------------------------------------
    def _handle_loop(self, stmt: ast.For, env, constants) -> None:
        ok, iterable = try_const_eval(stmt.iter, constants)
        if not ok:
            self._unroll_over_sequence(stmt, env, constants)
            return
        count = len(list(iterable))
        if count == 0:
            return
        self.cut_state()
        first = len(self.sdfg.states)
        self._walk_block(stmt.body, env, constants)
        self.cut_state()
        last = len(self.sdfg.states) - 1
        if last >= first:
            self.sdfg.add_loop(first, last, count, label=f"loop_l{stmt.lineno}")

    def _unroll_over_sequence(self, stmt: ast.For, env, constants) -> None:
        """``for field in fields:`` over a list or tuple the trace read
        (a variable number of tracers): one copy of the body per element,
        each element a recorded item read; the length is guarded."""
        try:
            items = self._resolve_value(stmt.iter, env)
        except OrchestrationError:
            items = None
        if not isinstance(items, (list, tuple)) or \
                not isinstance(stmt.target, ast.Name):
            raise OrchestrationError(
                f"line {stmt.lineno}: loop bound is not a compile-time "
                "constant"
            )
        constants.pop(stmt.target.id, None)
        for index in range(len(items)):
            env[stmt.target.id] = self._read(items, "item", index)
            self._walk_block(stmt.body, env, constants)

    # ------------------------------------------------------------------
    def _handle_assign(self, stmt: ast.Assign, env, constants) -> None:
        if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Tuple):
            targets = stmt.targets[0].elts
            if not all(isinstance(t, ast.Name) for t in targets):
                raise OrchestrationError(
                    f"line {stmt.lineno}: unpacking targets must be names"
                )
            values = self._resolve_value(stmt.value, env)
            if len(values) != len(targets):
                raise OrchestrationError(
                    f"line {stmt.lineno}: unpacking arity mismatch"
                )
            for t, v in zip(targets, values):
                env[t.id] = v
                if isinstance(v, _CONSTANT_TYPES):
                    constants[t.id] = v
            return
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            raise OrchestrationError(
                f"line {stmt.lineno}: only simple name assignments are "
                "supported between stencils"
            )
        name = stmt.targets[0].id
        ok, value = try_const_eval(stmt.value, constants)
        if ok:
            env[name] = self._keep_local(value)
            if isinstance(value, _CONSTANT_TYPES):
                constants[name] = value
            return
        try:
            value = self._resolve_value(stmt.value, env)
        except OrchestrationError as exc:
            raise OrchestrationError(
                f"line {stmt.lineno}: cannot resolve assignment: {exc}"
            ) from exc
        env[name] = value
        if isinstance(value, _CONSTANT_TYPES):
            constants[name] = value

    # ------------------------------------------------------------------
    def _handle_call(self, call: ast.Call, env, constants) -> None:
        callee, owner = self._resolve_callee(call.func, env)
        if isinstance(callee, StencilObject):
            self._pin(callee)
            self._add_stencil(callee, call, env, constants)
            return
        inner = _inline_target(callee)
        if inner is not None:
            index = self._where.get(id(callee))
            if index is not None:
                self.guards[index] = ("inline", inner)
            if isinstance(callee, OrchestratedProgram):
                instance = self._read(callee, "attr", "instance")
            elif getattr(callee, "__wrapped_orchestrate__", None) is inner:
                instance = owner  # a (bound) function orchestrate marked
            else:
                instance = callee  # a module whose __call__ is orchestrated
            args, kwargs = self._eval_call_args(call, env, preserve_scalars=True)
            self.build_function(inner, instance, args, kwargs, inner.__name__)
            return
        # automatic callback fallback (Sec. V-B)
        self._pin(callee)
        args, kwargs = self._eval_call_args(call, env)
        args = tuple(
            self._callback_arg(a, n) for a, n in zip(args, call.args)
        )
        kwargs = {
            kw.arg: self._callback_arg(kwargs[kw.arg], kw.value)
            for kw in call.keywords if kw.arg is not None
        }
        label = getattr(callee, "__name__", str(callee))
        callback = Callback(label, callee, args, kwargs)
        values = args + tuple(kwargs.values())
        if (
            isinstance(callee, types.FunctionType)
            and not callee.__closure__
            and all(
                isinstance(v, ContainerRef) or constant_key(v) is not None
                for v in values
            )
        ):
            # a plain function handed only containers and constants can
            # touch no other container of this program: declare it, so
            # the callback is no barrier for the rest (transient
            # lifetimes, zero fills)
            callback.reads = callback.writes = sorted(
                {v.name for v in values if isinstance(v, ContainerRef)}
            )
        self.cut_state()
        state = self.state(f"cb_{label}")
        state.add(callback)
        self.cut_state()

    def _callback_arg(self, value, node):
        """Arrays become container references, resolved per call; any
        other argument that has no by-value identity ties the compiled
        program to that one object."""
        if isinstance(value, np.ndarray) and 1 <= value.ndim <= 3:
            return ContainerRef(
                self.register_field(value, _name_hint(node, "arg"))
            )
        if isinstance(value, Transient):
            raise OrchestrationError(
                f"transient {_name_hint(node, 'arg')!r} is passed to a "
                "callback: a transient has no storage outside the "
                "compiled program — hand the callback an array"
            )
        if constant_key(value) is None:
            self._mark_unshareable(
                f"callback argument of type {type(value).__name__} is "
                "passed by identity"
            )
        return value

    def _resolve_callee(self, func_node, env):
        """The called object and, for ``owner.attr(...)``, the owner."""
        if isinstance(func_node, ast.Name):
            if func_node.id in env:
                return env[func_node.id], None
            raise OrchestrationError(f"unknown callee {func_node.id!r}")
        if isinstance(func_node, ast.Attribute):
            owner = self._resolve_value(func_node.value, env)
            try:
                return self._read(owner, "attr", func_node.attr), owner
            except AttributeError as exc:
                raise OrchestrationError(str(exc)) from exc
        raise OrchestrationError("unsupported callee expression")

    def _eval_call_args(self, call: ast.Call, env, preserve_scalars=False):
        def resolve(node):
            # preserve runtime-scalar identity through orchestrated inlining
            if preserve_scalars and isinstance(node, ast.Name):
                value = env.get(node.id)
                if isinstance(value, _ScalarAlias):
                    return value
                if node.id in self.runtime_scalars:
                    return _ScalarAlias(node.id)
            return self._resolve_value(node, env)

        args = [resolve(a) for a in call.args]
        kwargs = {kw.arg: resolve(kw.value) for kw in call.keywords
                  if kw.arg is not None}
        return args, kwargs

    def _resolve_value(self, node, env):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            raise OrchestrationError(f"unknown name {node.id!r}")
        if isinstance(node, ast.Attribute):
            owner = self._resolve_value(node.value, env)
            try:
                return self._read(owner, "attr", node.attr)
            except AttributeError as exc:
                raise OrchestrationError(str(exc)) from exc
        if isinstance(node, ast.Subscript):
            container = self._resolve_value(node.value, env)
            ok, key = try_const_eval(node.slice, env)
            if not ok:
                key = self._resolve_value(node.slice, env)
            return self._read(container, "item", key)
        if isinstance(node, ast.Tuple):
            return self._keep_local(
                tuple(self._resolve_value(e, env) for e in node.elts)
            )
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            ok, value = try_const_eval(node, env)
            if ok:
                return value
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "dict"
            and not node.args
        ):
            return self._keep_local({
                kw.arg: self._resolve_value(kw.value, env)
                for kw in node.keywords
                if kw.arg is not None
            })
        raise OrchestrationError(
            f"cannot resolve value of {type(node).__name__}"
        )

    # ------------------------------------------------------------------
    def _add_stencil(self, stencil: StencilObject, call, env, constants):
        sd = stencil.definition
        self.sources[stencil] = None
        params = [p.name for p in sd.params]
        # scalar arguments may be runtime expressions: value resolution is
        # best-effort (the AST node drives the scalar lowering)
        pos_values = []
        for a in call.args:
            try:
                pos_values.append(self._resolve_value(a, env))
            except OrchestrationError:
                pos_values.append(None)
        bound_nodes: Dict[str, ast.expr] = {}
        for pname, anode in zip(params, call.args):
            bound_nodes[pname] = anode
        call_kwargs: Dict[str, Any] = {}
        bound_values = dict(zip(params, pos_values))
        for kw in call.keywords:
            if kw.arg is None:  # **kwargs expansion resolved at build time
                expanded = self._resolve_value(kw.value, env)
                if not isinstance(expanded, dict):
                    raise OrchestrationError(
                        f"{sd.name}: ** argument must resolve to a dict"
                    )
                for key, value in expanded.items():
                    if key in ("origin", "domain", "bounds", "backend"):
                        call_kwargs[key] = value
                    else:
                        bound_values[key] = value
            elif kw.arg in ("origin", "domain", "bounds", "backend"):
                call_kwargs[kw.arg] = self._resolve_value(kw.value, env)
            else:
                bound_nodes[kw.arg] = kw.value
                bound_values[kw.arg] = self._resolve_value(kw.value, env)

        mapping: Dict[str, str] = {}
        for p in sd.field_params:
            if p.name not in bound_values:
                raise OrchestrationError(
                    f"{sd.name}: missing field argument {p.name!r}"
                )
            arr = bound_values[p.name]
            if not isinstance(arr, (np.ndarray, Transient)):
                raise OrchestrationError(
                    f"{sd.name}: field {p.name!r} did not resolve to an "
                    "array or a transient declaration"
                )
            hint = _name_hint(bound_nodes.get(p.name), p.name)
            mapping[p.name] = self.register_field(arr, hint)

        scalar_mapping: Dict[str, str] = {}
        state = self.state(sd.name)
        for p in sd.scalar_params:
            if p.name not in bound_values and p.name not in bound_nodes:
                raise OrchestrationError(
                    f"{sd.name}: missing scalar argument {p.name!r}"
                )
            scalar_mapping[p.name] = self._scalar_source(
                bound_nodes.get(p.name), bound_values.get(p.name), env, state
            )

        origin = call_kwargs.get("origin")
        domain = call_kwargs.get("domain")
        bounds = call_kwargs.get("bounds")
        h = stencil.n_halo
        if origin is None:
            origin = (h, h, 0)
        if domain is None:
            for p in sd.field_params:
                if p.field_type.axes == "IJK":
                    s = bound_values[p.name].shape
                    domain = (
                        s[0] - origin[0] - h,
                        s[1] - origin[1] - h,
                        s[2] - origin[2],
                    )
                    break
        node = StencilComputation(
            sd,
            stencil.extents,
            mapping=mapping,
            domain=tuple(domain),
            origin=tuple(origin),
            scalar_mapping=scalar_mapping,
            bounds=bounds if isinstance(bounds, GridBounds) else None,
        )
        state.add(node)

    def _scalar_source(self, node, value, env, state) -> str:
        """Map a scalar argument expression to a program scalar name."""
        if node is None:  # bound through ** expansion: value only
            if isinstance(value, (bool, int, float, np.floating)):
                name = self._fresh_scalar("const")
                self.sdfg.scalars[name] = float(value)
                return name
            raise OrchestrationError(
                f"scalar bound via ** did not resolve to a number: {value!r}"
            )
        # bare runtime-scalar name (or an alias to one): pass through
        if isinstance(node, ast.Name):
            if node.id in self.runtime_scalars:
                return node.id
            if isinstance(env.get(node.id), _ScalarAlias):
                return env[node.id].name
        if isinstance(value, _ScalarAlias):
            return value.name
        # expressions over runtime scalars must NOT be folded to their
        # build-time values (the scalar may change between calls)
        references_runtime = any(
            isinstance(sub, ast.Name)
            and (
                sub.id in self.runtime_scalars
                or isinstance(env.get(sub.id), _ScalarAlias)
            )
            for sub in ast.walk(node)
        )
        if references_runtime:
            return self._scalar_tasklet(node, state, env)
        ok, const = try_const_eval(node, {
            k: v for k, v in env.items() if isinstance(v, _CONSTANT_TYPES)
        })
        if ok:
            name = self._fresh_scalar("const")
            self.sdfg.scalars[name] = float(const)
            return name
        if value is not None and isinstance(value, (int, float, np.floating)):
            # resolvable at build time (e.g. attribute reads): constant-fold
            name = self._fresh_scalar("c")
            self.sdfg.scalars[name] = float(value)
            return name
        raise OrchestrationError(
            f"cannot lower scalar expression {ast.dump(node)}"
        )

    def _scalar_tasklet(self, node, state, env=None) -> str:
        """Emit a Tasklet computing a derived scalar from runtime scalars."""
        env = env or {}
        code = ast.unparse(node)
        names = set()
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Name):
                continue
            if sub.id in self.runtime_scalars:
                names.add(sub.id)
            elif isinstance(env.get(sub.id), _ScalarAlias):
                outer = env[sub.id].name
                code = _replace_word_boundary(code, sub.id, outer)
                names.add(outer)
        ok_shape = all(
            isinstance(sub, (ast.Name, ast.Constant, ast.BinOp, ast.UnaryOp))
            or isinstance(sub, (ast.operator, ast.unaryop, ast.expr_context))
            for sub in ast.walk(node)
        )
        if not ok_shape or not names:
            raise OrchestrationError(
                f"cannot lower scalar expression {ast.dump(node)}"
            )
        out = self._fresh_scalar("expr")
        state.add(Tasklet(f"tasklet_{out}", code, tuple(sorted(names)), out))
        return out

    def _fresh_scalar(self, hint: str) -> str:
        self._scalar_counter += 1
        return f"__s{self._scalar_counter}_{hint}"


def _replace_word_boundary(code: str, name: str, repl: str) -> str:
    import re

    return re.sub(rf"\b{re.escape(name)}\b", repl, code)


def _name_hint(node, fallback: str) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        chain = []
        cur = node
        while isinstance(cur, ast.Attribute):
            chain.append(cur.attr)
            cur = cur.value
        return "_".join(reversed(chain))
    return fallback


class OrchestratedProgram:
    """A callable whole-program SDFG wrapper (bound on first call)."""

    def __init__(self, func: Callable, instance: Any = None,
                 optimize: Optional[Callable] = None):
        self.func = func
        #: the convention of ``functools.wraps``: the name a decorated
        #: method is found under holds the program, this the function
        self.__wrapped__ = func
        self.instance = instance
        self.optimize = optimize
        self.name = func.__name__
        #: call-argument key → binding; ``_binding`` is the one last used
        self._bindings: Dict[tuple, _Binding] = {}
        self._binding: Optional[_Binding] = None
        #: sticky codegen flags: once instrumented (or pinned to a
        #: backend by ``compile``), bindings made for new argument
        #: identities compile the same way instead of silently dropping
        #: them
        self._instrument = False
        self._backend: Optional[str] = None
        #: parameter names, read once — every call needs them to find the
        #: runtime scalars among its arguments
        self._param_names: Optional[List[str]] = None

    # -- descriptor protocol: @orchestrate on methods ---------------------
    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        cache_name = f"_orchestrated_{self.name}"
        program = obj.__dict__.get(cache_name)
        if program is None:
            program = OrchestratedProgram(self.func, obj, self.optimize)
            obj.__dict__[cache_name] = program
        return program

    @property
    def sdfg(self) -> Optional[SDFG]:
        return self._binding.template.sdfg if self._binding else None

    def _trace(self, args, kwargs) -> Tuple[_Template, Dict[str, np.ndarray]]:
        builder = _Builder(self.label)
        builder.trace(self.func, self.instance, args, kwargs)
        builder.sdfg.expand_library_nodes()
        if self.optimize is not None:
            self.optimize(builder.sdfg)
        _cache.COUNTERS.add("program_traces")
        return builder.template(), builder.array_of

    def build(self, *args, **kwargs) -> SDFG:
        """Trace the whole-program SDFG for these arguments.

        The result is private to this program — callers transform the
        returned SDFG in place before ``compile()`` — and serves later
        calls with the same arguments.
        """
        template, arrays = self._trace(args, kwargs)
        self._binding = self._bindings[self._key(args, kwargs)] = _Binding(
            template, arrays, (args, kwargs)
        )
        return template.sdfg

    def compile(self, instrument: bool = False,
                backend: Optional[str] = None):
        """Compile the current SDFG (``backend``: ``"numpy"``/``"compiled"``).

        Both flags are sticky: a binding made for new argument identities
        compiles with the same instrumentation and backend, so kernel
        timing attribution survives across specializations. Without a
        ``backend`` pinned here a program follows the DSL's default
        backend (:meth:`_backend_wanted`); a compiled request without a
        usable JIT engine degrades (warn once) to NumPy.
        """
        if self._binding is None:
            raise OrchestrationError("build() the program first")
        self._instrument = bool(self._instrument or instrument)
        if backend is not None:
            self._backend = backend
        return self._replan(self._binding).plan

    def _backend_wanted(self) -> str:
        """``"compiled"`` or ``"numpy"``: what ``compile`` pinned, else
        what the DSL's default backend is *now* — ``REPRO_BACKEND`` sets
        it for the process, ``ForecastService`` switches it per attempt.
        Programs have two emissions; under any backend but ``compiled``
        they run the NumPy one."""
        if self._backend is not None:
            return self._backend
        if _backends.current_default_backend() == "compiled":
            return "compiled"
        return "numpy"

    def _replan(self, binding: _Binding) -> _Binding:
        """Give ``binding`` the plan of the backend wanted now."""
        from repro.dsl.backend_compiled import _warn_once
        from repro.runtime import jit

        wanted = resolved = self._backend_wanted()
        if resolved == "compiled" and not jit.available():
            _warn_once("no JIT engine: numba not installed and no C compiler")
            resolved = "numpy"
        try:
            plan = binding.template.plan(self._instrument, resolved)
        except jit.JitUnavailableError as exc:
            _warn_once(str(exc))
            plan = binding.template.plan(self._instrument, "numpy")
        binding.plan, binding.backend = plan, wanted
        return binding

    def _bind(self, args, kwargs) -> _Binding:
        """Bind this instance to a published template, or trace it (one
        thread per family at a time) and publish the result."""
        held = (args, kwargs)
        self._instrument = bool(self._instrument or _TRACER.enabled)
        family = None
        # a closure never shares (see _Template), and keying a family on
        # it would keep its cells — often arrays — alive
        closure = getattr(self.func, "__closure__", None)
        if not closure:
            family = _cache.template_family(self._family_key())
        if family is None:  # REPRO_COMPILE_CACHE=0, or a closure
            if closure:
                _cache.COUNTERS.add("programs_unpersistable")
            return self._trace_and_compile(args, kwargs)
        bound = dict(zip(self._parameters(), args))
        bound.update(kwargs)
        binding = self._match(family.templates, bound, held)
        if binding is None:
            with family.lock:
                # another rank thread may have published while we waited
                binding = self._match(family.templates, bound, held)
                if binding is None and not family.consulted:
                    # ... or an earlier process: what its record holds is
                    # published and bound like any template
                    family.consulted = True
                    self._restore(family)
                    binding = self._match(family.templates, bound, held)
                if binding is None:
                    binding = self._trace_and_compile(args, kwargs)
                    template, arrays = binding.template, binding.arrays
                    # bound like every later instance; a trace whose reads
                    # do not replay onto its own instance stays private
                    rebound = template.bind(self.instance, bound)
                    if rebound is not None and all(
                        rebound[name] is arrays[name] for name in arrays
                    ):
                        family.publish(template)
                        binding.arrays = rebound
                        self._store(family, template)
                    else:
                        _cache.COUNTERS.add("programs_unpersistable")
        return binding

    def _family_key(self) -> tuple:
        """What a template family is keyed by: the function, the class of
        the instance and the ``optimize`` pass."""
        return (
            self.func,
            None if self.instance is None else type(self.instance),
            self.optimize,
        )

    def _record(self, manifest: "_cache.Manifest") -> str:
        """The name of the family's record; the family's key joins
        ``manifest``, so that a record is refused when the function's or
        the ``optimize`` pass's code has changed."""
        names = [
            None if part is None else manifest.entries[manifest.index(part)][:3]
            for part in self._family_key()
        ]
        return _cache.record_name("t", repr(names))

    def _restore(self, family) -> None:
        """Publish the templates of the family's record, if there is a
        valid one (caller holds ``family.lock``)."""
        try:
            name = self._record(_cache.Manifest())
        except _cache.Unpersistable:
            return
        with _cache.restoring() as sp:
            templates = _cache.load_record(name, lambda payload, objects: [
                _Template.decode(data, objects) for data in payload
            ])
            if templates is not None:
                for template in templates:
                    family.publish(template)
                _cache.COUNTERS.add("programs_restored", len(templates))
                sp.add("templates", len(templates))

    def _store(self, family, template: _Template) -> None:
        """Write the family's record: every template of the family that
        another process could bind, ``template`` — just traced and
        published — last (caller holds ``family.lock``). If it names
        something no other process could find, it is counted and stays
        in memory only."""
        manifest = _cache.Manifest()
        encoded = []
        try:
            name = self._record(manifest)
            for member in family.templates:
                try:
                    encoded.append(member.encode(manifest))
                except _cache.Unpersistable:
                    if member is template:
                        raise
            stored = _cache.store_record(name, manifest, encoded)
        except _cache.Unpersistable:
            _cache.COUNTERS.add("programs_unpersistable")
            return
        if stored:
            _cache.COUNTERS.add("programs_stored")

    def _trace_and_compile(self, args, kwargs) -> _Binding:
        with _TRACER.span("orchestrate.build"):
            template, arrays = self._trace(args, kwargs)
        with _TRACER.span("orchestrate.compile"):
            return self._replan(_Binding(template, arrays, (args, kwargs)))

    def _match(self, templates, bound, held) -> Optional[_Binding]:
        if not templates:
            return None
        with _TRACER.span("orchestrate.bind"):
            for template in templates:
                arrays = template.bind(self.instance, bound)
                if arrays is not None:
                    _cache.COUNTERS.add("program_binds")
                    return self._replan(_Binding(template, arrays, held))
        return None

    @staticmethod
    def _key(args, kwargs) -> tuple:
        """What distinguishes one binding of this instance from another:
        array (and opaque object) arguments by identity, constants by
        value, runtime scalars not at all."""
        key = tuple([_argument_key(a) for a in args])
        if kwargs:
            key += tuple([
                (k, _argument_key(v)) for k, v in sorted(kwargs.items())
            ])
        return key

    def _parameters(self) -> List[str]:
        params = self._param_names
        if params is None:
            code = self.func.__code__
            params = [
                name for name in code.co_varnames[:code.co_argcount]
                if name != "self"
            ]
            self._param_names = params
        return params

    @property
    def label(self) -> str:
        """What the program is called in spans, SDFG names and findings:
        ``Class`` for a ``__call__``, ``Class.method``, or the function
        name."""
        if self.instance is None:
            return self.name
        owner = type(self.instance).__name__
        return owner if self.name == "__call__" else f"{owner}.{self.name}"

    def _kernel_bytes_by_label(self) -> Dict[str, Tuple[int, int]]:
        """label -> (summed perf-model moved bytes, kernel count)."""
        from repro.sdfg.nodes import Kernel

        out: Dict[str, Tuple[int, int]] = {}
        sdfg = self._binding.template.sdfg
        for state in sdfg.states:
            for node in state.nodes:
                if isinstance(node, Kernel):
                    nbytes, count = out.get(node.label, (0, 0))
                    out[node.label] = (nbytes + node.moved_bytes(sdfg),
                                       count + 1)
        return out

    def _record_kernel_spans(self, parent, before: Dict) -> None:
        """Attach per-kernel child spans from the instrumented deltas.

        Kernel wall times come from the compiled program's counters; byte
        counts come from the perf model (each accessed element once), so
        the report's GB/s column is modeled traffic over measured time —
        exactly the paper's Fig. 10 ratio.
        """
        bytes_by_label = self._kernel_bytes_by_label()
        for label, (total, count) in self._binding.plan.kernel_times.items():
            t0, c0 = before.get(label, (0.0, 0))
            dt, dc = total - t0, count - c0
            if dc <= 0:
                continue
            child = parent.child(f"kernel.{label}")
            child.count += dc
            child.total_seconds += dt
            nbytes, nkernels = bytes_by_label.get(label, (0, 1))
            child.add("bytes", dc * (nbytes // max(nkernels, 1)))

    def _bound(self, args, kwargs) -> _Binding:
        key = self._key(args, kwargs)
        binding = self._bindings.get(key)
        if binding is None:
            binding = self._bindings[key] = self._bind(args, kwargs)
        self._binding = binding
        if binding.backend != self._backend_wanted():
            # build() without compile(), or the default backend has been
            # switched since this binding was planned
            with _TRACER.span("orchestrate.compile"):
                self.compile(instrument=_TRACER.enabled)
        return binding

    def bind(self, *args, **kwargs) -> None:
        """Everything a call with these arguments does before it runs
        anything: match a published template or trace one, lower it, and
        ask the JIT for its kernels — inside a ``jit.batch()`` without
        waiting for them. The call itself then finds the binding made.
        Kernels an earlier request failed to get are asked for again."""
        self._bound(args, kwargs).plan.request()

    def __call__(self, *args, **kwargs):
        binding = self._bound(args, kwargs)
        template, plan = binding.template, binding.plan
        scalars = dict(template.sdfg.scalars)
        if template.runtime_scalars:
            bound = dict(zip(self._parameters(), args))
            bound.update(kwargs)
            for name in template.runtime_scalars:
                if name in bound:
                    scalars[name] = float(bound[name])
        if not _TRACER.enabled:
            self._run(binding, scalars)
            return
        with _TRACER.span(f"program.{self.label}") as sp:
            before = dict(plan.kernel_times) if plan.instrument else None
            self._run(binding, scalars)
            if before is not None:
                self._record_kernel_spans(sp, before)
            # scratch the program drew from the arena — the slab, the
            # planned values laid out in it, and the declared transients
            # among them — summed over the span's entries like ``bytes``
            # (divide by ``count`` per call)
            footprint = memory_footprint(template.sdfg)
            sp.add("transients", footprint["transients"])
            sp.add("transient_bytes", footprint["transient"])
            sp.add("slab_bytes", plan.runtime_bytes)
            sp.add("values", len(plan.plan_offsets))

    def _run(self, binding: _Binding, scalars: Dict[str, float]) -> None:
        arrays = binding.arrays
        binding.plan(arrays=arrays, scalars=scalars)
        if _chaos._PLAN is not None:
            # a stencil traced into a program is no ``StencilObject``
            # call; the fault such a call can be injected with is
            # injected here, kernel by kernel, once the program has run
            for label, written in binding.template.kernel_outputs():
                _chaos.maybe_nanflip(
                    label, {n: arrays[n] for n in written if n in arrays}
                )

    @property
    def kernel_times(self):
        binding = self._binding
        return binding.plan.kernel_times if binding and binding.plan else {}


def orchestrate(func=None, *, optimize: Optional[Callable] = None):
    """Decorator: turn a function/method into an orchestrated program.

    Methods of model classes decorated with ``@orchestrate`` are inlined
    when called from another orchestrated program (closure resolution per
    Fig. 6); top-level entry points are built into a single SDFG spanning
    the whole time step.
    """
    def wrap(f):
        program = OrchestratedProgram(f, optimize=optimize)
        # allow nested inlining to find the original function
        f.__wrapped_orchestrate__ = f
        program.func.__wrapped_orchestrate__ = f
        return program

    if func is not None:
        return wrap(func)
    return wrap
