"""Materialised plans: a :class:`PlanImage` made callable.

Code generation has two halves. *Generate*
(:func:`repro.sdfg.codegen.generate`, one generator for both backends)
turns an expanded SDFG into a :class:`PlanImage` — the driver source,
the memory plan, the kernels as text: plain data, nothing of the
process that made it. *Materialise* — the constructor of
:class:`CompiledSDFG`, in this module — turns an image into a callable:
the driver is executed, the callbacks are rebuilt from the SDFG's
``Callback`` nodes (:class:`PlanInputs`, what a plan takes from its SDFG
besides the image), the C kernel texts (a ``compiled`` image's; a
``numpy`` image has none) go to the JIT. Every plan is materialised from
an image, whether that was generated a moment ago or read from a record
an earlier process left (:mod:`repro.runtime.compile_cache`, "Program
records"); a process that finds all its images on disk never imports
the generator at all, which is why the two halves are two modules, and
never needs the SDFG, which is why the inputs are a third thing.

A plan is called through a :class:`BoundPlan`: the plan bound to one
set of arrays. The kernels' arguments are checked against the image
(:func:`_check_args`, counted in ``plan.arg_checks``) when that binding
is made and when it first meets a slab, and each kernel's pointer tuple
is made then too, kept per slab. ``DynamicalCore.prepare`` makes every
binding of a step meet the slab of every worker of its executor, so a
step's calls find theirs made; a call checks only that no bound array
has changed its shape, strides or dtype since, and each kernel call is
one ``ctypes`` call.
"""

from __future__ import annotations

import ctypes
import dataclasses
import math
import operator
import re
import time
import weakref
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.obs import tracer as _obs
from repro.obs.counters import Counters, register
from repro.runtime import jit
from repro.runtime import pool as _pool
from repro.runtime import ranks as _ranks
from repro.sdfg.nodes import Callback

_TRACER = _obs.get_tracer()

__all__ = [
    "PlanImage",
    "UnitImage",
    "PlanInputs",
    "PlanBindError",
    "CompiledSDFG",
    "BoundPlan",
    "COUNTERS",
    "generation_key",
]

#: where a generated source splits into the top-level functions it is
#: compiled as, one by one
_FUNCTIONS = re.compile(r"^(?=def )", re.MULTILINE)

#: ``arg_checks``: kernel argument lists held against the image — when
#: a binding is made or a slab first seen, never per call
COUNTERS = register("plan", Counters(sums=("arg_checks",)))


@dataclasses.dataclass
class PlanImage:
    """Everything code generation derives from an SDFG, as plain data:
    what :func:`repro.sdfg.codegen.generate` returns, what a plan is
    materialised from (:class:`CompiledSDFG`) and what the compile cache
    stores on disk.
    The SDFG itself is not in it, nor anything of this process."""

    #: the driver, ``__program``, after the NumPy-emitted kernels it
    #: calls, a top-level function each
    source: str
    #: (shape, dtype) of every planned value, the alloc/free log they
    #: were laid out from, and where
    #: :func:`repro.sdfg.codegen.plan_layout` put them
    specs: List[Tuple[Tuple[int, ...], np.dtype]]
    events: List[Tuple[str, int]]
    offsets: List[int]
    runtime_bytes: int
    #: transient generation → its value in the plan, by
    #: :func:`generation_key`
    transient_values: Dict[str, int]
    kernel_labels: List[str]
    #: compiled backend only (:mod:`repro.sdfg.codegen_compiled`): the
    #: lowered kernels as C, the kernels left to NumPy emission with the
    #: reason, the OpenMP width
    units: List["UnitImage"] = dataclasses.field(default_factory=list)
    fallback_kernels: List[Tuple[str, str]] = dataclasses.field(
        default_factory=list
    )
    threads: int = 1
    #: what the C engine compiles in front of every kernel text
    preamble: str = ""


@dataclasses.dataclass
class UnitImage:
    """One lowered kernel as a :class:`PlanImage` holds it: printed, with
    what calling it takes."""

    label: str
    #: one C function named :data:`repro.runtime.jit.SYMBOL`; ``None``
    #: in a plan whose kernels have all been built (``CompiledSDFG._entry``)
    text: Optional[str]
    #: (shape, dtype.str) per array argument, validated at each call
    arg_specs: List[Tuple[Tuple[int, ...], str]]
    #: the scalar arguments that follow the arrays
    scalars: List[str]
    #: what each array argument is: a container's name (a caller's
    #: array), a transient generation's key (its planned value when no
    #: caller gives the transient) or the number of a planned value (a
    #: kernel local)
    args: List[Union[str, int]]


def generation_key(name: str, index: int) -> str:
    """How a plan names generation ``index`` of transient ``name``
    (:attr:`repro.sdfg.analysis.Coverage.lifetimes`): the first by the
    transient's name, a later one as ``name@index``."""
    return f"{name}@{index}" if index else name


class PlanInputs(NamedTuple):
    """What a plan takes from its SDFG besides the image: the name, the
    ``Callback`` nodes in program order (the driver's ``__CB``) and the
    containers every call must bind. A template's record keeps them, so
    a plan restored with it needs no SDFG."""

    name: str
    callbacks: tuple
    required: tuple

    @classmethod
    def of(cls, sdfg) -> "PlanInputs":
        return cls(
            sdfg.name,
            tuple(n for n in sdfg.all_nodes() if isinstance(n, Callback)),
            tuple(n for n, desc in sdfg.arrays.items() if not desc.transient),
        )


class PlanBindError(ValueError):
    """An array passed at call time does not match the compiled plan."""


class CompiledSDFG:
    """A compiled whole-program SDFG, materialised from its image.

    Call with ``arrays`` (container name → NumPy array for every
    non-transient container, plus the object behind each callback's
    ``ObjectRef``) and optional ``scalars``, or :meth:`bind` the arrays
    once and call the :class:`BoundPlan` with the scalars of each call
    (what an orchestrated program does). A call made while tracing is on
    times its kernels into a buffer of its own and returns
    ``{label: (seconds, calls)}`` for the kernels it ran (the measured
    half of the Fig. 10 analysis); any other call returns ``None``.

    All working memory — expression scratch, kernel-local arrays and SDFG
    transients — is one slab per call, taken from the thread's scratch
    worker (:mod:`repro.runtime.pool`), laid out when the image was
    generated (:func:`repro.sdfg.codegen.plan_layout`). The shaped views
    a slab is seen through, and where each planned value starts in it,
    are made the first time this program meets that slab and kept for
    the slab's life, so nested calls are safe (they take the next
    depth's slab) and repeated calls allocate and construct nothing.

    A ``compiled`` image's eligible kernels run as JIT-compiled scalar
    loop nests; its ineligible kernels, and every kernel of a ``numpy``
    image, are NumPy emission within the same driver, so the plan as a
    whole always runs. Materialising hands the image's kernel texts to
    the C engine — which builds only what no program has asked for
    before, and inside a ``jit.batch()`` only when that exits — and
    fills the driver's ``__K`` table (empty without kernels) with a stub
    per kernel that asks for its entry point at the first call and puts
    it in its own place. The kernel keys carry flags, compiler and CPU
    features, so an image written on another host runs here once its
    kernels are rebuilt.

    Whether the image was generated a moment ago or read from a record
    of an earlier process makes no difference here: what is of *this*
    process — the executed driver, the callbacks (rebuilt from the
    ``Callback`` nodes of ``inputs``, in program order), the kernel
    entry points — is made in this constructor and nowhere else.
    """

    def __init__(self, inputs: PlanInputs, image: PlanImage):
        self.name = inputs.name
        self.image = image
        self.source = image.source
        self.kernel_labels = image.kernel_labels
        #: byte offset of every planned value, and the slab that holds them
        self.plan_offsets = image.offsets
        self.runtime_bytes = image.runtime_bytes
        self._transient_values = image.transient_values
        #: (key, transient) of every generation after a transient's first
        self._later = [
            (key, key.partition("@")[0])
            for key in image.transient_values if "@" in key
        ]
        self.fallback_kernels = image.fallback_kernels
        #: the JIT's flight per unit (which may still be in the builder's
        #: batch); a kernel that another plan of this process also
        #: contains is the same object in both
        self.kernel_functions: List = []
        if image.units:
            self._request_c()
        kernels: List = []
        kernels.extend(
            _first_call(self._entry, kernels, index)
            for index in range(len(image.units))
        )
        namespace = {
            "np": np,
            "__CB": [node.caller() for node in inputs.callbacks],
            "__K": kernels,
            "__perf_counter": time.perf_counter,
        }
        # one top-level function at a time: the NumPy-emitted kernels are
        # functions of their own, and compiling them apart bounds the
        # parser's transient memory by the largest kernel, not the program
        for piece in _FUNCTIONS.split(self.source):
            if piece:
                code = compile(piece, f"<sdfg:{self.name}>", "exec")
                exec(code, namespace)  # noqa: S102 - generated from our own IR
        self._program = namespace["__program"]
        self._required: Tuple[str, ...] = inputs.required
        #: arena slab → (``__B``, transient name → view, where each
        #: planned value starts), see :meth:`_views`
        self._bound: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    @property
    def plan_events(self) -> Tuple[Tuple[str, int], ...]:
        """The planner's alloc/free log, for the R4xx lifetime checker."""
        return tuple(self.image.events)

    @property
    def plan_nbytes(self) -> List[int]:
        """Bytes of every planned value (indexed like ``plan_offsets``)."""
        return [
            math.prod(shape) * dtype.itemsize
            for shape, dtype in self.image.specs
        ]

    def _views(self, slab):
        """The plan's values as shaped views of ``slab`` (values the
        planner gave the same bytes, shape and dtype are one view), the
        transients among them, and the address of each — made, and the
        kernel arguments among them checked, once per slab."""
        bound = self._bound.get(slab)
        if bound is not None:
            return bound
        views: Dict[tuple, np.ndarray] = {}
        scratch = []
        for (shape, dtype), offset, nbytes in zip(
            self.image.specs, self.plan_offsets, self.plan_nbytes
        ):
            key = (offset, shape, dtype.str)
            view = views.get(key)
            if view is None:
                view = views[key] = (
                    slab.data[offset:offset + nbytes].view(dtype).reshape(shape)
                )
            scratch.append(view)
        transients = {
            name: scratch[value]
            for name, value in self._transient_values.items()
        }
        base = slab.data.ctypes.data
        addresses = [base + offset for offset in self.plan_offsets]
        for unit in self.image.units:
            _check_args(unit.label, [
                (scratch[value], spec) for value, spec in zip(
                    map(self._planned_value, unit.args), unit.arg_specs
                ) if value is not None
            ])
        bound = self._bound[slab] = (scratch, transients, addresses)
        return bound

    def _planned_value(self, arg) -> Optional[int]:
        """The planned value a kernel's array argument is when no caller
        gives the container: a kernel local's, a transient's."""
        return arg if isinstance(arg, int) else self._transient_values.get(arg)

    # ------------------------------------------------------------------
    def bind(self, arrays: Dict[str, np.ndarray]) -> "BoundPlan":
        """This plan bound to ``arrays``: checked now, called with the
        scalars of each call."""
        return BoundPlan(self, arrays)

    def __call__(
        self,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        scalars: Optional[Dict[str, float]] = None,
    ) -> Optional[Dict[str, Tuple[float, int]]]:
        return BoundPlan(self, arrays or {})(scalars or {})

    def _by_label(self, timing) -> Optional[Dict[str, Tuple[float, int]]]:
        """``timing`` (seconds of kernel ``i`` at ``2i``, its calls at
        ``2i + 1``) as (seconds, calls) per label of a kernel that ran."""
        if timing is None:
            return None
        out: Dict[str, Tuple[float, int]] = {}
        for label, seconds, calls in zip(
            self.kernel_labels, timing[::2], timing[1::2]
        ):
            if calls:
                t, n = out.get(label, (0.0, 0))
                out[label] = (t + seconds, n + calls)
        return out

    @property
    def compiled_kernels(self) -> List[str]:
        """The labels of the kernels that run as C: none on ``numpy``."""
        return [unit.label for unit in self.image.units]

    def _request_c(self) -> None:
        self.kernel_functions = jit.load_c(
            [
                jit.KernelSource(
                    unit.label,
                    unit.text,
                    (ctypes.c_void_p,) * len(unit.arg_specs)
                    + (ctypes.c_double,) * len(unit.scalars)
                    + (ctypes.c_int64,),
                )
                for unit in self.image.units
            ],
            self.image.preamble,
            want_openmp=self.image.threads > 1,
        )

    def request(self) -> None:
        """Ask again for the kernels of a request that failed before they
        were built — the batch they were recorded in raised, or the
        compiler rejected their unit. The plan is in the compile caches
        by then and outlives the failure; its failed flights have left
        the JIT's table and never resolve."""
        if any(flight.error is not None for flight in self.kernel_functions):
            self._request_c()

    def _entry(self, index: int):
        """The C entry point of unit ``index``, for its first call. Once
        every kernel of the plan has landed the image's texts are
        dropped: only :meth:`request` reads them, after a failure, and
        the plan's record was written when the plan was made."""
        self.request()
        entry = self.kernel_functions[index].result()
        if all(flight.done.is_set() and flight.error is None
               for flight in self.kernel_functions):
            for unit in self.image.units:
                unit.text = None
        return entry


#: what a call compares of each bound array with what it was checked as
_LAYOUT = operator.attrgetter("shape", "strides", "dtype")


class BoundPlan:
    """A plan bound to one set of arrays: what an orchestrated program's
    binding keeps and calls with the scalars of each call.

    Made once, it checks every array a C kernel takes from the caller
    against the image (:func:`_check_args`). Meeting a slab (:meth:`meet`)
    makes the pointer tuple of every kernel — a caller's array by its
    address, a planned value as the slab's base plus its offset (the
    views were checked when the plan first saw the slab) — and keeps
    them for that slab. A call then compares the shape, strides and
    dtype of the arrays it checked with what they were — what an array
    can change in place — and checks again when one differs, which
    raises :class:`PlanBindError` when it no longer fits the plan."""

    __slots__ = ("plan", "arrays", "_checked", "_layouts", "_slabs",
                 "_slabless")

    def __init__(self, plan: CompiledSDFG, arrays: Dict[str, np.ndarray]):
        missing = [n for n in plan._required if n not in arrays]
        if missing:
            raise ValueError(f"missing arrays for containers: {missing}")
        self.plan = plan
        # caller-provided transient storage stands for every generation
        later = {key: arrays[name] for key, name in plan._later
                 if name in arrays}
        self.arrays = {**arrays, **later} if later else arrays
        self._check()

    def _check(self) -> None:
        """Check the caller's arrays of every kernel; what earlier slabs
        were handed is made again."""
        plan, arrays = self.plan, self.arrays
        checked: Dict[int, np.ndarray] = {}
        for unit in plan.image.units:
            given = [
                (arrays[arg], spec)
                for arg, spec in zip(unit.args, unit.arg_specs)
                if arg in arrays
            ]
            _check_args(unit.label, given)
            checked.update((id(arr), arr) for arr, _ in given)
        self._checked = tuple(checked.values())
        self._layouts = list(map(_LAYOUT, self._checked))
        #: arena slab → (the arrays the driver sees, ``__B``, each
        #: kernel's pointer tuple); the one triple of a plan without slab
        self._slabs: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._slabless = None if plan.runtime_bytes else self._on(None)

    def meet(self, slab) -> tuple:
        """What a call on ``slab`` hands the driver, made the first time."""
        bound = self._slabless or self._slabs.get(slab)
        if bound is None:
            bound = self._slabs[slab] = self._on(slab)
        return bound

    def _on(self, slab) -> tuple:
        """What a call on ``slab`` hands the driver, made at the first:
        each kernel's pointers are the address of a caller's array or
        the slab's base plus a planned value's offset."""
        plan, given = self.plan, self.arrays
        if slab is None:
            arrays, scratch, addresses = given, (), ()
        else:
            scratch, transients, addresses = plan._views(slab)
            # caller-provided transient storage wins
            arrays = {**transients, **given} if transients else given
        address = {id(arr): arr.ctypes.data for arr in self._checked}
        pointers = [
            tuple(
                address[id(given[arg])] if arg in given
                else addresses[plan._planned_value(arg)]
                for arg in unit.args
            )
            for unit in plan.image.units
        ]
        return arrays, scratch, pointers

    def __call__(
        self, scalars: Dict[str, float]
    ) -> Optional[Dict[str, Tuple[float, int]]]:
        plan = self.plan
        if self._checked and \
                list(map(_LAYOUT, self._checked)) != self._layouts:
            self._check()  # an array changed in place: it must fit again
        # seconds and calls per kernel of this call alone, while tracing
        timing = [0.0, 0] * len(plan.kernel_labels) \
            if _TRACER.enabled else None
        threads = _ranks.kernel_threads(plan.image.threads)
        if not plan.runtime_bytes:
            plan._program(*self._slabless, scalars, timing, threads)
            return plan._by_label(timing)
        worker = _pool.current()
        slab = worker.take(plan.runtime_bytes)
        try:
            plan._program(*self.meet(slab), scalars, timing, threads)
        finally:
            worker.depth -= 1
        return plan._by_label(timing)


# ---------------------------------------------------------------------------
# runtime call wrappers
# ---------------------------------------------------------------------------


def _check_args(label, args):
    """Each ``(array, (shape, dtype.str))`` of kernel ``label``: the
    array must be C-contiguous of that shape and dtype."""
    COUNTERS.add("arg_checks")
    for arr, (shape, dstr) in args:
        got_shape = getattr(arr, "shape", None)
        got_dtype = getattr(getattr(arr, "dtype", None), "str", None)
        if got_shape != shape or got_dtype != dstr:
            refused = f"got {got_shape}/{got_dtype}"
        elif not arr.flags.c_contiguous:
            want, stride = [], arr.itemsize
            for n in reversed(shape):
                want.insert(0, stride)
                stride *= n
            refused = (f"got strides {arr.strides}, C-contiguous would be "
                       f"{tuple(want)}")
        else:
            continue
        raise PlanBindError(
            f"kernel {label!r}: array does not match the compiled plan "
            f"(expected C-contiguous {shape}/{dstr}, {refused})"
        )


def _first_call(entry, kernels: list, index: int):
    """``__K[index]`` until the kernel's first call: it asks ``entry``
    for the kernel's entry point then, when whichever batch the kernel
    was requested in has been built (``CompiledSDFG._entry``), and puts
    that in its own place, so every later call is the ``ctypes`` call
    alone."""
    def call(*args):
        cfn = entry(index)
        kernels[index] = cfn
        cfn(*args)

    return call
