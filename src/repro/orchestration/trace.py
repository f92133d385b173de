"""The tracer: one whole-program SDFG from a call of model code.

:class:`_Builder` walks a function's closure-resolved, preprocessed source
statement by statement (what each statement becomes is described in
:mod:`repro.orchestration.program`) and records the provenance every
later instance is bound by. This module — with the closure resolver and
the preprocessor it drives — is what tracing needs and binding does not:
:meth:`~repro.orchestration.program.OrchestratedProgram._trace` imports it
with the first trace, so a process that restores every program from its
records never loads it.
"""

from __future__ import annotations

import ast
import types
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dsl.bounds import GridBounds
from repro.dsl.stencil import StencilObject
from repro.orchestration.closure import ClosureError, closure_template
from repro.orchestration.preprocessor import preprocess_function, try_const_eval
from repro.orchestration.program import (
    _CONSTANT_TYPES,
    _FLOAT_TYPES,
    OrchestratedProgram,
    OrchestrationError,
    Transient,
    _inline_target,
    _Template,
)
from repro.sdfg.graph import SDFG, SDFGState
from repro.sdfg.nodes import (
    Callback,
    ContainerRef,
    ObjectRef,
    StencilComputation,
    Tasklet,
    constant_key,
)


class _ScalarAlias:
    """A runtime scalar passed down into an inlined function under a new
    parameter name: reads resolve to the *outer* scalar name so updated
    values flow in on every call without rebuilding."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"_ScalarAlias({self.name!r})"


def _guard_of(value) -> Tuple[str, Any]:
    """What a trace assumes about a value it read."""
    key = constant_key(value)
    if key is not None:
        return ("const", key)
    if isinstance(value, np.ndarray):
        return ("array", (value.shape, value.dtype, value.strides))
    if isinstance(value, Transient):
        return ("transient", (value.shape, value.dtype, value.zeroed))
    if isinstance(value, (list, tuple)):
        return ("sequence", (type(value), len(value)))
    return ("type", type(value))


class _Builder:
    """Builds one whole-program SDFG, recording where every outside value
    it consumed came from (see :class:`_Template`)."""

    def __init__(self, name: str):
        self.sdfg = SDFG(name)
        self.container_of: Dict[int, str] = {}
        #: container → the array, or the transient declaration, behind it
        #: (and an ``ObjectRef``'s name → the object a callback is handed)
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
            first = self._values[index]
            if value is not first and constant_key(value) is None:
                if isinstance(value, OrchestratedProgram) and \
                        isinstance(first, OrchestratedProgram) and \
                        value._state is first._state:
                    # a method read off its instance again: a new
                    # program object around the same state
                    return first
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
    def array_of(self) -> Dict[str, Any]:
        """What a call binds each name to: the array behind each
        non-transient container, the object behind each :class:`ObjectRef`."""
        return {
            name: field for name, field in self.field_of.items()
            if not isinstance(field, Transient)
        }

    def _fresh_name(self, hint: str) -> str:
        name = hint.lstrip("_") or "arr"
        base, n = name, 0
        while name in self.field_of:
            n += 1
            name = f"{base}_{n}"
        return name

    def register_field(self, field, hint: str) -> str:
        """The container of an array or a :class:`Transient` declaration:
        one per object, however many names and attributes reach it."""
        key = id(field)
        if key in self.container_of:
            return self.container_of[key]
        name = self._fresh_name(hint)
        axes = {3: "IJK", 2: "IJ", 1: "K"}.get(field.ndim)
        if axes is None:
            raise OrchestrationError(
                f"field {hint!r} has unsupported rank {field.ndim}"
            )
        transient = isinstance(field, Transient)
        self.sdfg.add_array(
            name, field.shape, field.dtype.type, axes=axes,
            transient=transient, zeroed=transient and field.zeroed,
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
                isinstance(v, (ContainerRef, ObjectRef))
                or constant_key(v) is not None
                for v in values
            )
        ):
            # a plain function handed only containers, constants and
            # objects of the instance can touch no transient of this
            # program (an object cannot hold one) and, by contract, no
            # container it was not handed: declare it, so the callback is
            # no barrier for the rest (transient lifetimes, zero fills)
            callback.reads = callback.writes = sorted(
                {v.name for v in values if isinstance(v, ContainerRef)}
            )
        self.cut_state()
        state = self.state(f"cb_{label}")
        state.add(callback)
        self.cut_state()

    def _callback_arg(self, value, node):
        """Arrays become container references and objects the trace
        reached along a recorded path object references, both resolved
        per call — so every instance binds its own; any other argument
        that has no by-value identity ties the compiled program to that
        one object."""
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
        if constant_key(value) is not None:
            return value
        if id(value) in self._where:
            name = self.container_of.get(id(value))
            if name is None:
                name = self._fresh_name(_name_hint(node, "obj"))
                self.container_of[id(value)] = name
                self.field_of[name] = value
            return ObjectRef(name)
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
                from repro.sdfg.codegen import _replace_word

                code = _replace_word(code, sub.id, outer)
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
