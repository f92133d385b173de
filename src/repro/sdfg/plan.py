"""Materialised plans: a :class:`PlanImage` made callable.

Code generation has two halves. *Generate*
(:func:`repro.sdfg.codegen.generate`,
:func:`repro.sdfg.codegen_compiled.generate_compiled`) turns an expanded
SDFG into a :class:`PlanImage` — the driver source, the memory plan, the
kernels as text: plain data, nothing of the process that made it.
*Materialise* — the constructors of :class:`CompiledSDFG` and
:class:`CompiledPlan`, in this module — turns an image into a callable:
the driver is executed, the callbacks are rebuilt from the SDFG's
``Callback`` nodes, the kernel texts go to the JIT engine. Every plan is
materialised from an image, whether that was generated a moment ago or
read from a record an earlier process left
(:mod:`repro.runtime.compile_cache`, "Program records"); a process that
finds all its images on disk never imports the generators at all, which
is why the two halves are two modules.
"""

from __future__ import annotations

import ctypes
import dataclasses
import math
import time
import weakref
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime import jit
from repro.runtime import ranks as _ranks
from repro.runtime.pool import get_pool
from repro.sdfg.nodes import Callback

__all__ = [
    "PlanImage",
    "UnitImage",
    "PlanBindError",
    "CompiledSDFG",
    "CompiledPlan",
]


@dataclasses.dataclass
class PlanImage:
    """Everything code generation derives from an SDFG, as plain data:
    what :func:`repro.sdfg.codegen.generate` returns, what a plan is
    materialised from (:class:`CompiledSDFG`) and what the compile cache
    stores on disk.
    The SDFG itself is not in it, nor anything of this process."""

    instrument: bool
    #: the driver: one Python function ``__program``
    source: str
    #: (shape, dtype) of every planned value, the alloc/free log they
    #: were laid out from, and where
    #: :func:`repro.sdfg.codegen.plan_layout` put them
    specs: List[Tuple[Tuple[int, ...], np.dtype]]
    events: List[Tuple[str, int]]
    offsets: List[int]
    runtime_bytes: int
    #: transient → its value in the plan
    transient_values: Dict[str, int]
    kernel_labels: List[str]
    #: compiled backend only (:mod:`repro.sdfg.codegen_compiled`): the
    #: lowered kernels as text of ``engine``'s language, the kernels
    #: left to ufunc emission with the reason, the OpenMP width
    units: List["UnitImage"] = dataclasses.field(default_factory=list)
    fallback_kernels: List[Tuple[str, str]] = dataclasses.field(
        default_factory=list
    )
    engine: Optional[str] = None
    threads: int = 1
    #: what the C engine compiles in front of every kernel text
    preamble: str = ""


@dataclasses.dataclass
class UnitImage:
    """One lowered kernel as a :class:`PlanImage` holds it: printed, with
    what calling it takes."""

    label: str
    #: one function named :data:`repro.runtime.jit.SYMBOL`, in C or in
    #: Python as the image's ``engine`` wants it
    text: str
    #: (shape, dtype.str) per array argument, validated at each call
    arg_specs: List[Tuple[Tuple[int, ...], str]]
    #: the scalar arguments that follow the arrays
    scalars: List[str]
    #: kernel locals that are no array of the slab
    registers: frozenset


class PlanBindError(ValueError):
    """An array passed at call time does not match the compiled plan."""


class CompiledSDFG:
    """A compiled whole-program SDFG, materialised from its image.

    Call with ``arrays`` (container name → NumPy array for every
    non-transient container, plus the object behind each callback's
    ``ObjectRef``) and optional ``scalars``. Per-kernel wall-clock
    times are collected when the image was generated with
    ``instrument=True`` (used by the Fig. 10 analysis).

    All working memory — expression scratch, kernel-local arrays and SDFG
    transients — is one slab checked out of the process buffer pool per
    call and released afterwards, laid out when the image was generated
    (:func:`repro.sdfg.codegen.plan_layout`). The shaped views a slab is seen through are
    built the first time the arena hands that slab to this program and
    kept for as long as the arena keeps the slab, so nested calls are safe
    (they draw another slab) and repeated calls allocate and construct
    nothing.

    Whether the image was generated a moment ago or read from a record
    of an earlier process makes no difference here: what is of *this*
    process — the executed driver, the callbacks (rebuilt from the
    SDFG's ``Callback`` nodes, in program order), the counters — is made
    in this constructor and nowhere else.
    """

    def __init__(self, sdfg, image: PlanImage):
        self.sdfg = sdfg
        self.image = image
        self.instrument = image.instrument
        self.source = image.source
        self.kernel_labels = image.kernel_labels
        #: byte offset of every planned value, and the slab that holds them
        self.plan_offsets = image.offsets
        self.runtime_bytes = image.runtime_bytes
        self._transient_values = image.transient_values
        namespace = {
            "np": np,
            "__CB": [
                node.caller() for node in sdfg.all_nodes()
                if isinstance(node, Callback)
            ],
            "__perf_counter": time.perf_counter,
        }
        code = compile(self.source, f"<sdfg:{sdfg.name}>", "exec")
        exec(code, namespace)  # noqa: S102 - generated from our own IR
        self._program = namespace["__program"]
        self._kernel_time = np.zeros(len(self.kernel_labels))
        self._kernel_count = np.zeros(len(self.kernel_labels), dtype=np.int64)
        self._required: Tuple[str, ...] = tuple(
            name for name, desc in sdfg.arrays.items() if not desc.transient
        )
        #: arena slab → (``__B``, transient name → view), see :meth:`_bind`
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

    def _bind(self, slab) -> Tuple[List[np.ndarray], Dict[str, np.ndarray]]:
        """The plan's values as shaped views of ``slab``. Values the
        planner gave the same bytes, shape and dtype are one view."""
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
        return scratch, transients

    # ------------------------------------------------------------------
    def __call__(
        self,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        scalars: Optional[Dict[str, float]] = None,
    ) -> None:
        arrays = arrays or {}
        missing = [n for n in self._required if n not in arrays]
        if missing:
            raise ValueError(f"missing arrays for containers: {missing}")
        pool = get_pool()
        if pool._recorder is not None:
            # lifetime recording active: declare every caller-provided
            # container as an out=-scheduled destination so the R404
            # checker can catch live pooled scratch aliasing a kernel
            # output owned by someone else
            for name in self._required:
                pool.note("bind", arrays[name],
                          label=f"sdfg:{self.sdfg.name}:{name}")
        if not self.runtime_bytes:
            self._program(
                arrays, scalars or {}, self._kernel_time, self._kernel_count, ()
            )
            return
        slab = pool.checkout_slab(self.runtime_bytes)
        try:
            bound = self._bound.get(slab)
            if bound is None:
                bound = self._bound[slab] = self._bind(slab)
            scratch, transients = bound
            # caller-provided transient storage wins
            self._program(
                {**transients, **arrays}, scalars or {},
                self._kernel_time, self._kernel_count, scratch,
            )
        finally:
            pool.release(slab)

    def request(self) -> None:
        """Ask again for whatever of this plan is built outside it and
        failed to build (nothing here: NumPy emission is complete when it
        is compiled; see ``CompiledPlan.request``)."""

    @property
    def kernel_times(self) -> Dict[str, Tuple[float, int]]:
        """Per-kernel (total seconds, invocation count) when instrumented."""
        out: Dict[str, Tuple[float, int]] = {}
        for label, t, c in zip(
            self.kernel_labels, self._kernel_time, self._kernel_count
        ):
            prev = out.get(label, (0.0, 0))
            out[label] = (prev[0] + float(t), prev[1] + int(c))
        return out


# ---------------------------------------------------------------------------
# runtime call wrappers
# ---------------------------------------------------------------------------


def _check_args(args, specs, label):
    for arr, (shape, dstr) in zip(args, specs):
        if (
            getattr(arr, "shape", None) != shape
            or arr.dtype.str != dstr
            or not arr.flags.c_contiguous
        ):
            raise PlanBindError(
                f"kernel {label!r}: array does not match the compiled plan "
                f"(expected C-contiguous {shape}/{dstr}, got "
                f"{getattr(arr, 'shape', None)}/"
                f"{getattr(getattr(arr, 'dtype', None), 'str', None)})"
            )


def _c_caller(entry, unit: UnitImage, threads: int):
    """``entry()`` is the kernel's entry point; it is asked for at the
    first call, when whichever batch the kernel was requested in has been
    built (``CompiledPlan._entry``). The OpenMP width is ``threads``, or
    a rank thread's share of the cores (``ranks.kernel_threads``)."""
    narr = len(unit.arg_specs)
    cfn = None

    def call(*args):
        nonlocal cfn
        if cfn is None:
            cfn = entry()
        _check_args(args[:narr], unit.arg_specs, unit.label)
        cargs = [arr.ctypes.data for arr in args[:narr]]
        cargs.extend(float(s) for s in args[narr:])
        cargs.append(_ranks.kernel_threads(threads))
        cfn(*cargs)

    return call


def _py_caller(fn, unit: UnitImage):
    narr = len(unit.arg_specs)

    def call(*args):
        _check_args(args[:narr], unit.arg_specs, unit.label)
        fn(*args)

    return call


class CompiledPlan(CompiledSDFG):
    """A whole-program plan whose eligible kernels run as JIT-compiled
    scalar loop nests; ineligible kernels keep the parent's ufunc emission
    within the same program, so the plan as a whole always runs.

    Materialising it hands the image's kernel texts to the JIT engine
    they were printed for — which builds only what no program has asked
    for before, and inside a ``jit.batch()`` only when that exits — and
    binds the callers into the driver's ``__K`` table. The kernel keys
    carry flags, compiler and CPU features, so an image written on
    another host runs here once its kernels are rebuilt."""

    def __init__(self, sdfg, image: PlanImage):
        super().__init__(sdfg, image)
        self.fallback_kernels = image.fallback_kernels
        self.threads = image.threads
        self.engine = image.engine
        #: what the engine handed out per unit (the C engine: the
        #: kernel's flight, which may still be in the builder's batch); a
        #: kernel that another plan of this process also contains is the
        #: same object in both
        self.kernel_functions: List = []
        units = image.units
        funcs: List = []
        if not units:
            pass
        elif self.engine == "cgen":
            self._request_c()
            funcs = [
                _c_caller(partial(self._entry, index), unit, self.threads)
                for index, unit in enumerate(units)
            ]
        elif self.engine == "pyloops":
            self.kernel_functions = [
                jit.compile_py(unit.text, jit.SYMBOL) for unit in units
            ]
            funcs = [
                _py_caller(fn, unit)
                for fn, unit in zip(self.kernel_functions, units)
            ]
        else:
            raise jit.JitUnavailableError(
                "compiled backend requires a JIT engine (a C compiler, "
                "or REPRO_JIT=pyloops); none is available"
            )
        self._program.__globals__["__K"] = funcs

    @property
    def compiled_kernels(self) -> List[str]:
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
            want_openmp=self.threads > 1,
        )

    def request(self) -> None:
        """Ask again for the kernels of a request that failed before they
        were built — the batch they were recorded in raised, or the
        compiler rejected their unit. The plan is in the compile caches
        by then and outlives the failure; its failed flights have left
        the JIT's table and never resolve."""
        if self.engine == "cgen" and any(
            flight.error is not None for flight in self.kernel_functions
        ):
            self._request_c()

    def _entry(self, index: int):
        """The C entry point of unit ``index``, for its first call."""
        self.request()
        return self.kernel_functions[index].result()
