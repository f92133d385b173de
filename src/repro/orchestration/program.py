"""Orchestration: build one SDFG from object-oriented model code.

``@orchestrate`` turns a function or method into an
:class:`OrchestratedProgram`. The first call of a (function, owner class)
*traces* it: the Python source is closure-resolved (Fig. 6) and
preprocessed (constant propagation, unrolling, dead branches), then walked
statement by statement by :mod:`repro.orchestration.trace`, which is
imported with the first trace:

- calls to ``@stencil`` objects insert StencilComputation library nodes
  (Sec. V-B);
- calls to other orchestrated functions/methods are inlined recursively;
- any other call becomes an automatic :class:`Callback` with ``__pystate``
  serialization; its array arguments, and objects it is handed that the
  trace reached through the instance, are bound per call like containers;
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
tracing; what binding and calling need is in the record beside the SDFG,
which stays packed until something asks for the graph. The guards are
re-checked on the live instance exactly as for a template traced a
moment ago; what they cannot see, the *code* a trace walked, is in the
record's manifest and compared before anything of the record is used.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dsl import backends as _backends
from repro.obs import tracer as _obs
from repro.resilience import chaos as _chaos
from repro.runtime import compile_cache as _cache
from repro.sdfg.nodes import constant_key
from repro.sdfg.plan import PlanInputs

if TYPE_CHECKING:
    from repro.sdfg.graph import SDFG

_TRACER = _obs.get_tracer()


class OrchestrationError(ValueError):
    pass


_CONSTANT_TYPES = (bool, int, float, str, type(None))
_FLOAT_TYPES = (float, np.floating)


class Transient:
    """Scratch a module declares but does not own: a ``shape`` and a
    ``dtype``, no buffer. Orchestrated programs that pass it to a stencil
    allocate it per call as an SDFG transient; the object's identity is
    what makes two uses the same container. A ``zeroed`` one starts each
    call at zero, for a reader that reads more of it than its writers
    define (the rest of them start undefined)."""

    __slots__ = ("shape", "dtype", "zeroed", "__weakref__")

    def __init__(self, shape, dtype=np.float64, zeroed: bool = False):
        self.shape = tuple(int(n) for n in shape)
        self.dtype = np.dtype(dtype)
        self.zeroed = bool(zeroed)

    @property
    def ndim(self) -> int:
        return len(self.shape)

#: the declaration as modules spell it: ``self.tmp = transient(shape)``
transient = Transient


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
            and (value.shape, value.dtype, value.zeroed) == ref
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
    behind each non-transient container — and behind each object a
    callback is handed (an :class:`~repro.sdfg.nodes.ObjectRef`), which
    is re-bound per instance the same way — and ``transients`` the read
    behind each declared transient, which has no array to bind. Nothing
    here references the traced instance or its arrays.

    A trace that consumed something it cannot re-read — an array or
    object reached outside the instance/arguments/globals (a callback
    argument among them), a closure — has ``reads is None``: it serves
    the instance that traced it and is never shared.

    What a call takes besides the binding is kept beside the SDFG: its
    ``scalars``, the hash of its content its plans are found by
    (``digest``) and what a plan takes from the graph
    (:meth:`plan_inputs`). A template restored from its record has all
    of them from there and its SDFG still packed
    (:class:`~repro.runtime.compile_cache.PackedSDFG`): :attr:`sdfg`
    decodes it when something asks for the graph.
    """

    def __init__(self, sdfg, runtime_scalars: List[str],
                 reads: Optional[tuple] = None, guards: tuple = (),
                 containers: tuple = (), transients: tuple = (),
                 arg_names: frozenset = frozenset(),
                 has_instance: bool = False, sources: tuple = (),
                 scalars: Optional[Dict[str, float]] = None,
                 inputs: Optional[PlanInputs] = None,
                 digest: Optional[str] = None):
        #: the traced SDFG, or a restored one still packed
        self._sdfg = sdfg
        self._packed = sdfg if isinstance(sdfg, _cache.PackedSDFG) else None
        #: a traced template's are its SDFG's own: a caller that
        #: transforms the graph before ``compile()`` changes them there
        self.scalars = sdfg.scalars if scalars is None else scalars
        self._inputs = inputs
        self.digest = digest
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
        self._lock = threading.RLock()
        self._kernel_outputs: Optional[tuple] = None
        self._kernel_bytes: Optional[Dict[str, int]] = None
        self._footprint: Optional[Dict[str, int]] = None

    @property
    def sdfg(self) -> SDFG:
        """The program's SDFG: a restored template's is decoded here, the
        first time something asks for it."""
        sdfg = self._sdfg
        if isinstance(sdfg, _cache.PackedSDFG):
            with self._lock:
                sdfg = self._sdfg
                if isinstance(sdfg, _cache.PackedSDFG):
                    sdfg = self._sdfg = sdfg.load()
        return sdfg

    @property
    def name(self) -> str:
        return (self._inputs or self.sdfg).name

    def plan_inputs(self) -> PlanInputs:
        """What a plan takes from the SDFG: a traced template's are read
        off the graph as it is now."""
        return self._inputs or PlanInputs.of(self.sdfg)

    def kernel_outputs(self) -> tuple:
        """``(label, names of the containers it writes)`` per kernel, in
        program order (where an injected ``stencil.nanflip`` can land)."""
        if self._kernel_outputs is None:
            self._kernel_outputs = tuple(
                (kernel.label, tuple(kernel.written_fields()))
                for kernel in self.sdfg.all_kernels()
            )
        return self._kernel_outputs

    def kernel_bytes(self) -> Dict[str, int]:
        """label → perf-model moved bytes of one call of a kernel of that
        label (the mean over the kernels that share it): what a
        ``kernel.<label>`` span adds per call."""
        if self._kernel_bytes is None:
            from repro.sdfg.nodes import Kernel

            totals: Dict[str, Tuple[int, int]] = {}
            for state in self.sdfg.states:
                for node in state.nodes:
                    if isinstance(node, Kernel):
                        nbytes, count = totals.get(node.label, (0, 0))
                        totals[node.label] = (
                            nbytes + node.moved_bytes(self.sdfg), count + 1
                        )
            self._kernel_bytes = {
                label: nbytes // count
                for label, (nbytes, count) in totals.items()
            }
        return self._kernel_bytes

    def memory_footprint(self) -> Dict[str, int]:
        """:meth:`SDFG.memory_footprint` of the traced program: what a
        ``program.*`` span adds per call."""
        if self._footprint is None:
            self._footprint = self.sdfg.memory_footprint()
        return self._footprint

    def plan(self, backend: str):
        flags = _cache.codegen_flags(backend)
        plan = self._plans.get(flags)
        if plan is None:
            with self._lock:
                plan = self._plans.get(flags)
                if plan is None:
                    plan = self._plans[flags] = _cache.compile_program(
                        self, backend
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
        packed = self._packed
        if packed is not None and packed.objects is manifest.seed:
            sdfg = packed.data  # numbered as this manifest numbers
        else:
            # packed here, a callback nobody else could find costs the
            # family this template, not its record
            sdfg = _cache.pack_sdfg(manifest, self.sdfg)

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
            "scalars": dict(self.scalars),
            "inputs": tuple(self.plan_inputs()),
            "digest": self.digest,
            "sdfg": sdfg,
        }

    @classmethod
    def decode(cls, data: Dict[str, Any], objects: List[Any]) -> "_Template":
        """The template :meth:`encode` wrote, around the live ``objects``
        of its record's manifest; its SDFG stays packed."""
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
            _cache.PackedSDFG(data["sdfg"], objects),
            data["runtime_scalars"], reads, guards,
            data["containers"], data["transients"], data["arg_names"],
            data["has_instance"],
            tuple(objects[at] for at in data["sources"]),
            data["scalars"], PlanInputs(*data["inputs"]), data["digest"],
        )

    def bind(self, instance, bound: Dict[str, Any]
             ) -> Optional[Dict[str, np.ndarray]]:
        """Replay the reads on ``instance``/``bound``; the container →
        array (or callback object) mapping when every guard holds, else
        ``None``."""
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
    the backend that plan was asked of (``None``: no plan yet), and the
    plan bound to the arrays (:class:`~repro.sdfg.plan.BoundPlan`: what
    a call calls). ``held`` keeps the arguments alive so the ids in the
    binding's key cannot be recycled."""

    __slots__ = ("template", "arrays", "plan", "held", "backend", "call")

    def __init__(self, template: _Template, arrays, held):
        self.template = template
        self.arrays = arrays
        self.held = held
        self.plan = None
        self.backend: Optional[str] = None
        self.call = None


class ProgramState:
    """What a program keeps between calls, for one instance: kept in the
    instance's ``__dict__`` (``_orchestrated_<name>``) when the program is
    a method. Nothing here references the instance — bindings hold
    arrays, templates and plans — so an instance and its programs are
    freed by reference counting, never left to the cyclic collector."""

    __slots__ = ("bindings", "binding", "backend", "param_names")

    def __init__(self):
        #: call-argument key → binding; ``binding`` is the one last used
        self.bindings: Dict[tuple, _Binding] = {}
        self.binding: Optional[_Binding] = None
        #: the backend ``compile`` pinned: bindings made for new argument
        #: identities compile the same way instead of silently dropping it
        self.backend: Optional[str] = None
        #: parameter names, read once — every call needs them to find the
        #: runtime scalars among its arguments
        self.param_names: Optional[List[str]] = None


class OrchestratedProgram:
    """A callable whole-program SDFG wrapper (bound on first call).

    On a class, ``@orchestrate`` leaves a program without an instance;
    read off an instance (``module.__call__``, ``model.step``) it gives,
    like a bound method, a new program for that instance on every read,
    around the :class:`ProgramState` the instance keeps. The program
    holds the instance and nothing holds the program, so the pair is no
    reference cycle, and a program read off a temporary object keeps
    that object alive for as long as it is itself held."""

    def __init__(self, func: Callable, instance: Any = None,
                 optimize: Optional[Callable] = None,
                 state: Optional[ProgramState] = None):
        self.func = func
        #: the convention of ``functools.wraps``: the name a decorated
        #: method is found under holds the program, this the function
        self.__wrapped__ = func
        self.instance = instance
        self.optimize = optimize
        self.name = func.__name__
        self._state = state if state is not None else ProgramState()

    # -- descriptor protocol: @orchestrate on methods ---------------------
    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        cache_name = f"_orchestrated_{self.name}"
        state = obj.__dict__.get(cache_name)
        if state is None:
            state = obj.__dict__.setdefault(cache_name, ProgramState())
        return OrchestratedProgram(self.func, obj, self.optimize, state)

    @property
    def sdfg(self) -> Optional[SDFG]:
        binding = self._state.binding
        return binding.template.sdfg if binding else None

    def _trace(self, args, kwargs) -> Tuple[_Template, Dict[str, np.ndarray]]:
        from repro.orchestration.trace import _Builder

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
        state = self._state
        state.binding = state.bindings[self._key(args, kwargs)] = _Binding(
            template, arrays, (args, kwargs)
        )
        return template.sdfg

    def compile(self, backend: Optional[str] = None):
        """Compile the current SDFG (``backend``: ``"numpy"``/``"compiled"``).

        The backend is sticky: a binding made for new argument identities
        compiles for the same one. Without a ``backend`` pinned here a
        program follows the DSL's default backend
        (:meth:`_backend_wanted`); a compiled request without a usable
        C compiler gets NumPy emission, warned once
        (:func:`repro.runtime.compile_cache.get_or_compile`). Whether
        tracing is on is no property of the plan: a call made while it
        is times its kernels (``kernel.<label>`` spans), whichever plan
        it runs.
        """
        state = self._state
        if state.binding is None:
            raise OrchestrationError("build() the program first")
        if backend is not None:
            state.backend = _backends.check_backend(backend)
        return self._replan(state.binding).plan

    def _backend_wanted(self) -> str:
        """``"compiled"`` or ``"numpy"``: what ``compile`` pinned, else
        what the DSL's default backend is *now* — ``REPRO_BACKEND`` sets
        it for the process, ``ForecastService`` switches it per attempt.
        Both were checked where they were given."""
        return self._state.backend or _backends.default_backend()

    def _replan(self, binding: _Binding) -> _Binding:
        """Give ``binding`` the plan of the backend wanted now."""
        wanted = self._backend_wanted()
        binding.plan, binding.backend = binding.template.plan(wanted), wanted
        binding.call = binding.plan.bind(binding.arrays)
        return binding

    def _bind(self, args, kwargs) -> _Binding:
        """Bind this instance to a published template, or trace it (one
        thread per family at a time) and publish the result."""
        held = (args, kwargs)
        # a closure never shares (see _Template), and keying a family on
        # it would keep its cells — often arrays — alive
        if getattr(self.func, "__closure__", None):
            _cache.COUNTERS.add("programs_unpersistable")
            return self._trace_and_compile(args, kwargs)
        family = _cache.template_family(self._family_key())
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
                        binding.call = binding.plan.bind(rebound)
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
        encoded = []
        try:
            # numbered as the record the family's restored templates came
            # from: their SDFGs are written again still packed
            manifest = _cache.Manifest(next(
                (member._packed.objects for member in family.templates
                 if member._packed is not None), (),
            ))
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
        params = self._state.param_names
        if params is None:
            code = self.func.__code__
            params = [
                name for name in code.co_varnames[:code.co_argcount]
                if name != "self"
            ]
            self._state.param_names = params
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

    def _record_kernel_spans(self, parent, times) -> None:
        """A ``kernel.<label>`` child of ``parent`` per kernel the call
        ran: ``times`` is what the plan returned, its seconds and calls;
        bytes come from the perf model (each accessed element once), so
        the report's GB/s column is modeled traffic over measured time —
        exactly the paper's Fig. 10 ratio."""
        kernel_bytes = self._state.binding.template.kernel_bytes()
        for label, (seconds, calls) in times.items():
            parent.child(f"kernel.{label}").merge_dict({
                "count": calls, "total_seconds": seconds,
                "attrs": {"bytes": calls * kernel_bytes.get(label, 0)},
            })

    def _bound(self, args, kwargs) -> _Binding:
        key = self._key(args, kwargs)
        state = self._state
        binding = state.bindings.get(key)
        if binding is None:
            binding = state.bindings[key] = self._bind(args, kwargs)
        state.binding = binding
        if binding.backend != self._backend_wanted():
            # build() without compile(), or the default backend has been
            # switched since this binding was planned
            with _TRACER.span("orchestrate.compile"):
                self._replan(binding)
        return binding

    def bind(self, *args, **kwargs):
        """Everything a call with these arguments does before it runs
        anything: match a published template or trace one, lower it, and
        ask the JIT for its kernels — inside a ``jit.batch()`` without
        waiting for them. The call itself then finds the binding made.
        Kernels an earlier request failed to get are asked for again.
        Returns the :class:`~repro.sdfg.plan.BoundPlan` the call calls."""
        binding = self._bound(args, kwargs)
        binding.plan.request()
        return binding.call

    def __call__(self, *args, **kwargs):
        binding = self._bound(args, kwargs)
        template, plan = binding.template, binding.plan
        scalars = template.scalars
        if template.runtime_scalars:
            bound = dict(zip(self._parameters(), args))
            bound.update(kwargs)
            scalars = dict(scalars)
            for name in template.runtime_scalars:
                if name in bound:
                    scalars[name] = float(bound[name])
        if not _TRACER.enabled:
            self._run(binding, scalars)
            return
        with _TRACER.span(f"program.{self.label}") as sp:
            times = self._run(binding, scalars)
            if times is not None:  # (tracing may have stopped meanwhile)
                self._record_kernel_spans(sp, times)
            # scratch the program drew from the arena — the slab, the
            # planned values laid out in it, and the declared transients
            # among them — summed over the span's entries like ``bytes``
            # (divide by ``count`` per call)
            footprint = template.memory_footprint()
            sp.add("transients", footprint["transients"])
            sp.add("transient_bytes", footprint["transient"])
            sp.add("slab_bytes", plan.runtime_bytes)
            sp.add("values", len(plan.plan_offsets))

    def _run(self, binding: _Binding, scalars: Dict[str, float]):
        """Call the plan; what it returns (its kernel times, when tracing
        is on)."""
        arrays = binding.arrays
        times = binding.call(scalars)
        if _chaos._PLAN is not None:
            # a stencil traced into a program is no ``StencilObject``
            # call; the fault such a call can be injected with is
            # injected here, kernel by kernel, once the program has run
            for label, written in binding.template.kernel_outputs():
                _chaos.maybe_nanflip(
                    label, {n: arrays[n] for n in written if n in arrays}
                )
        return times


def orchestrate(func=None, *, optimize: Optional[Callable] = None):
    """Decorator: turn a function/method into an orchestrated program.

    Methods of model classes decorated with ``@orchestrate`` are inlined
    when called from another orchestrated program (closure resolution per
    Fig. 6); a top-level entry point is built into one SDFG spanning its
    whole call tree. A rank step calls four such programs
    (``DynamicalCore.step_programs``): the Riemann solve and the rest of
    the acoustic sub-step — c_sw, the scalar halo finish as a callback,
    d_sw and the flux accumulation — per sub-step, the tracer transport
    and the vertical remap per remapping step.
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
