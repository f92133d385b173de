"""Code generation: SDFG → vectorized NumPy Python source.

The paper's DaCe backend generates CUDA/C++; this reproduction generates a
single Python module of vectorized NumPy statements. That preserves the
properties the evaluation relies on:

- whole-program compilation removes the per-call overhead of stencils
  called one by one (argument binding, validation, dispatch);
- transient elision and fusion transformations remove real array traffic;
- per-kernel timing — of the calls made while tracing is on, each into
  a buffer of its own — yields the measured runtimes that the
  model-driven analysis (Fig. 10) combines with modeled peak times.

Statement emission is *scheduled*: instead of one nested expression string
per statement (every NumPy operator allocating a fresh full-domain
temporary), each floating-point subexpression becomes an explicit ufunc
call with ``out=`` into a scratch value. Scratch values are freed as soon
as their last consumer has been emitted, kernel-local arrays when their
kernel ends and SDFG transients per generation, after the last toucher
of each value (:attr:`repro.sdfg.analysis.Coverage.lifetimes`); from that
alloc/free order a compile-time planner (:class:`_BufferPlan`) gives every
value a byte interval of one slab, which the program checks out of
:mod:`repro.runtime.pool` once per call. Nothing is zeroed wholesale: a
transient or a kernel local only when some read of it is not covered by
the writes ahead of it — one exact rule for both, the S202/S204
condition, answered by one walk (:func:`repro.sdfg.analysis.coverage`).
Steady-state execution of a compiled program therefore performs no
array allocation.

Compiled programs give the bits of the definition's plain NumPy
arithmetic (:mod:`repro.dsl.oracle`): ``out=`` targets are only used where NumPy's ufunc memory-overlap
guarantee (NumPy ≥ 1.13) makes the result identical to evaluation through
temporaries, and a subexpression is only materialized when its result
dtype is provably float64 under NEP 50 promotion (at least one float64
array operand). Everything else stays inline.

This module is the *generate* half, and its one generator:
:func:`generate` turns an SDFG into a :class:`~repro.sdfg.plan.PlanImage`
— driver source and memory plan as plain data. The backend is one
decision inside it: under ``compiled`` a kernel that has a bit-exact
scalar form is lowered to C (:mod:`repro.sdfg.codegen_compiled`) and the
driver calls it; every other kernel, and every kernel under ``numpy``,
is the NumPy emission above. Making an image callable is the other half,
:mod:`repro.sdfg.plan`.
"""

from __future__ import annotations

import dataclasses
import math
import re
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.dsl.ir import (
    Assign,
    AxisIndexExpr,
    BinOp,
    Call,
    Expr,
    FieldAccess,
    Literal,
    ScalarRef,
    Ternary,
    UnaryOp,
)
from repro.runtime import jit
from repro.runtime.pool import ALIGN
from repro.sdfg.analysis import coverage
from repro.sdfg.nodes import Callback, Kernel, StencilComputation, Tasklet
from repro.sdfg.plan import (
    CompiledSDFG, PlanImage, PlanInputs, UnitImage, generation_key,
)

_NP_FUNCS = {
    "sqrt": "np.sqrt",
    "abs": "np.abs",
    "exp": "np.exp",
    "log": "np.log",
    "sin": "np.sin",
    "cos": "np.cos",
    "tan": "np.tan",
    "asin": "np.arcsin",
    "acos": "np.arccos",
    "atan": "np.arctan",
    "floor": "np.floor",
    "ceil": "np.ceil",
    "trunc": "np.trunc",
    "min": "np.minimum",
    "max": "np.maximum",
    "sign": "np.sign",
}

_UFUNC_BINOPS = {
    "+": "np.add",
    "-": "np.subtract",
    "*": "np.multiply",
    "/": "np.divide",
    "**": "np.power",
    "%": "np.remainder",
    "//": "np.floor_divide",
}
_CMP_OPS = {"<", ">", "<=", ">=", "==", "!="}

_F64 = np.dtype(np.float64)
_BOOL = np.dtype(bool)


class _SourceBuilder:
    def __init__(self):
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# scheduled expression values
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Val:
    """One scheduled (sub)expression: source text plus what is statically
    known about the array it evaluates to."""

    text: str
    shape: Tuple[int, ...]
    dtype: Optional[np.dtype]  # None: weak scalar / not statically known
    is_bool: bool = False
    #: resolved array name when ``text`` is a bare view of that array
    base: Optional[str] = None
    #: live scratch slots referenced (transitively) by ``text``
    slots: FrozenSet[int] = frozenset()
    #: the root op already wrote through ``out=`` into the statement target
    stored: bool = False

    @property
    def is_f64_array(self) -> bool:
        return self.shape != () and self.dtype == _F64


def _aligned(nbytes: int) -> int:
    """``nbytes`` in whole cache lines: every planned value starts on
    one (slabs do, and offsets are multiples of ``ALIGN``)."""
    return -(-nbytes // ALIGN) * ALIGN


def plan_layout(nbytes, events) -> Tuple[List[int], int]:
    """Byte offsets of the values of an alloc/free log inside one slab,
    and the slab's size.

    ``nbytes[v]`` is the size of value ``v``; ``events`` is the program's
    ``("alloc" | "free", v)`` order, every value allocated once. The log
    is run through a first-fit allocator: a value takes the lowest
    ``ALIGN``-aligned gap between the values live at its birth that
    holds it, and gives it back at its death. Values that are live
    together therefore never overlap; values that are not share bytes,
    whatever their shapes. The slab ends where the highest value ever
    placed ends, which is the peak of live bytes whenever lifetimes nest
    (kernel locals inside transients, expression scratch inside both) and
    for values of one size; crossing lifetimes of unequal sizes can leave
    a gap nothing later fits.
    """
    offsets = [0] * len(nbytes)
    live: List[Tuple[int, int, int]] = []  # (offset, end, value), by offset
    top = 0
    for kind, value in events:
        if kind == "free":
            live = [entry for entry in live if entry[2] != value]
            continue
        size = _aligned(nbytes[value])
        offset = 0
        at = len(live)
        for index, (start, end, _) in enumerate(live):
            if start - offset >= size:
                at = index
                break
            offset = max(offset, end)
        live.insert(at, (offset, offset + size, value))
        offsets[value] = offset
        top = max(top, offset + size)
    return offsets, top


class _BufferPlan:
    """Compile-time memory planner of one program.

    Every pooled value — an SDFG transient, a kernel-local array, one
    ``out=`` expression result — is one :meth:`alloc` and at most one
    :meth:`free` in emission order; the value index is its position in the
    runtime list ``__B``. :func:`plan_layout` turns that log into one byte
    interval per value inside a single per-call slab, so the program's
    working set is the peak of simultaneously live *bytes*, not a buffer
    per distinct shape."""

    def __init__(self):
        #: (shape, dtype) of every value
        self.specs: List[Tuple[Tuple[int, ...], np.dtype]] = []
        #: the alloc/free log: what :func:`plan_layout` lays out and the
        #: R4xx checker (``repro.lint.runtime_rules.lint_compiled_plan``)
        #: replays
        self.events: List[Tuple[str, int]] = []

    def alloc(self, shape, dtype=_F64) -> int:
        self.specs.append((tuple(shape), np.dtype(dtype)))
        self.events.append(("alloc", len(self.specs) - 1))
        return len(self.specs) - 1

    def free(self, idx: int) -> None:
        self.events.append(("free", idx))

    def nbytes(self) -> List[int]:
        return [
            math.prod(shape) * dtype.itemsize for shape, dtype in self.specs
        ]


def _broadcast(*shapes) -> Tuple[int, ...]:
    return tuple(np.broadcast_shapes(*shapes)) if shapes else ()


class _ExprEmitter:
    """Translate IR expressions into NumPy source strings."""

    def __init__(self, kernel: Kernel, sdfg):
        self.kernel = kernel
        self.sdfg = sdfg
        self.locals = _local_arrays(kernel)

    def array_name(self, name: str) -> str:
        return self.locals[name][0] if name in self.locals else name

    def axes(self, name: str) -> str:
        return "IJK" if name in self.locals else self.sdfg.arrays[name].axes

    def dtype_of(self, name: str) -> np.dtype:
        if name in self.locals:
            return _F64
        return np.dtype(self.sdfg.arrays[name].dtype)

    def origin(self, name: str) -> Tuple[int, int, int]:
        if name in self.locals:
            return self.locals[name][2]
        return self.kernel.origin_of(name)

    # ---- 3D (parallel) context -------------------------------------------

    def access_3d(self, name, offset, irng, jrng, krng) -> str:
        axes = self.axes(name)
        oi, oj, ok = self.origin(name)
        di, dj, dk = offset
        parts = []
        if "I" in axes:
            parts.append(f"{oi + irng[0] + di}:{oi + irng[1] + di}")
        if "J" in axes:
            parts.append(f"{oj + jrng[0] + dj}:{oj + jrng[1] + dj}")
        if "K" in axes:
            parts.append(f"{ok + krng[0] + dk}:{ok + krng[1] + dk}")
        src = f"{self.array_name(name)}[{', '.join(parts)}]"
        if axes == "IJ":
            src += "[:, :, np.newaxis]"
        elif axes == "K":
            src += "[np.newaxis, np.newaxis, :]"
        return src

    # ---- 2D (per-level) context --------------------------------------------

    def access_2d(self, name, offset, irng, jrng, k_src: str) -> str:
        axes = self.axes(name)
        oi, oj, ok = self.origin(name)
        di, dj, dk = offset
        parts = []
        if "I" in axes:
            parts.append(f"{oi + irng[0] + di}:{oi + irng[1] + di}")
        if "J" in axes:
            parts.append(f"{oj + jrng[0] + dj}:{oj + jrng[1] + dj}")
        if "K" in axes:
            shift = ok + dk
            parts.append(f"{k_src} + {shift}" if shift else k_src)
        if axes == "K":
            # K-only fields collapse to a scalar at a fixed level; keep them
            # 2D (shape (1, 1)) so they broadcast against the 3D operands
            return (
                f"{self.array_name(name)}"
                f"[np.newaxis, np.newaxis, {parts[0]}]"
            )
        return f"{self.array_name(name)}[{', '.join(parts)}]"


class _Ctx:
    """Leaf emission for one statement's concrete index ranges; shapes and
    dtypes are fully known at codegen time, which is what lets the
    scheduler allocate exact scratch slots."""

    def __init__(self, em: _ExprEmitter, irng, jrng, krng=None, k_src=None):
        self.em = em
        self.irng = irng
        self.jrng = jrng
        self.krng = krng
        self.k_src = k_src
        self.is_3d = krng is not None

    def _hlens(self) -> Tuple[int, int]:
        return (self.irng[1] - self.irng[0], self.jrng[1] - self.jrng[0])

    def access(self, expr: FieldAccess) -> "_Val":
        em = self.em
        axes = em.axes(expr.name)
        dtype = em.dtype_of(expr.name)
        ilen, jlen = self._hlens()
        if self.is_3d:
            text = em.access_3d(
                expr.name, expr.offset, self.irng, self.jrng, self.krng
            )
            klen = self.krng[1] - self.krng[0]
            if axes == "IJ":
                shape = (ilen, jlen, 1)
            elif axes == "K":
                shape = (1, 1, klen)
            else:
                shape = (ilen, jlen, klen)
        else:
            text = em.access_2d(
                expr.name, expr.offset, self.irng, self.jrng, self.k_src
            )
            shape = (1, 1) if axes == "K" else (ilen, jlen)
        return _Val(
            text,
            shape,
            dtype,
            is_bool=(dtype == _BOOL),
            base=em.array_name(expr.name),
        )

    def axis_index(self, expr: AxisIndexExpr) -> "_Val":
        ilen, jlen = self._hlens()
        i64 = np.dtype(np.int64)
        if self.is_3d:
            if expr.axis == "I":
                text = f"np.arange({self.irng[0]}, {self.irng[1]}).reshape(-1, 1, 1)"
                return _Val(text, (ilen, 1, 1), i64)
            if expr.axis == "J":
                text = f"np.arange({self.jrng[0]}, {self.jrng[1]}).reshape(1, -1, 1)"
                return _Val(text, (1, jlen, 1), i64)
            klen = self.krng[1] - self.krng[0]
            text = f"np.arange({self.krng[0]}, {self.krng[1]}).reshape(1, 1, -1)"
            return _Val(text, (1, 1, klen), i64)
        if expr.axis == "I":
            text = f"np.arange({self.irng[0]}, {self.irng[1]}).reshape(-1, 1)"
            return _Val(text, (ilen, 1), i64)
        if expr.axis == "J":
            text = f"np.arange({self.jrng[0]}, {self.jrng[1]}).reshape(1, -1)"
            return _Val(text, (1, jlen), i64)
        return _Val(f"({self.k_src})", (), None)  # plain Python int at runtime

    def region_mask(self, guard, out: _SourceBuilder) -> "_Val":
        """Boolean mask of the region rectangle ``guard`` over this
        statement's ranges (a predicated horizontal region)."""
        (i0, i1), (j0, j1) = guard
        ri = self.axis_index(AxisIndexExpr("I")).text
        rj = self.axis_index(AxisIndexExpr("J")).text
        if self.is_3d:
            out.emit(f"__ri = {ri}")
            out.emit(f"__rj = {rj}")
            ri, rj = "__ri", "__rj"
        return _Val(
            f"(({ri} >= {i0}) & ({ri} < {i1}) & "
            f"({rj} >= {j0}) & ({rj} < {j1}))",
            self._hlens() + ((1,) if self.is_3d else ()),
            _BOOL,
            is_bool=True,
        )


class _StmtScheduler:
    """Post-order ``out=`` scheduling of one statement's expression tree.

    A compound node is *materialized* — emitted as its own ufunc call with
    ``out=`` into a scratch slot — only when its result dtype is provably
    float64 (NEP 50: at least one float64 array operand; nothing in the DSL
    promotes above float64). Comparisons, logicals and anything uncertain
    stay inline, so scheduled programs are bit-identical to nested
    evaluation. Operand slots are freed before the output slot is taken, so
    an op may write in place over its own input — exact-overlap ``out=`` is
    well-defined for elementwise ufuncs."""

    def __init__(self, out: _SourceBuilder, plan: _BufferPlan):
        self.out = out
        self.plan = plan

    @staticmethod
    def _buf(idx: int) -> str:
        return f"__B[{idx}]"

    def free(self, *vals: _Val) -> None:
        for val in vals:
            for slot in val.slots:
                self.plan.free(slot)

    def _eligible(self, shape, operands) -> bool:
        return shape != () and any(o.is_f64_array for o in operands)

    def _inline(self, text: str, operands, bool_: bool = False) -> _Val:
        slots = frozenset().union(*(o.slots for o in operands))
        shape = _broadcast(*[o.shape for o in operands])
        return _Val(
            text, shape, _BOOL if bool_ else None, is_bool=bool_, slots=slots
        )

    def _ufunc(self, func, operands, shape, target: Optional[_Val]) -> _Val:
        args = ", ".join(o.text for o in operands)
        if (
            target is not None
            and target.shape == shape
            and target.dtype == _F64
        ):
            # the root op writes straight into the statement target; NumPy's
            # overlap handling keeps this identical to using a temporary
            self.free(*operands)
            self.out.emit(f"{func}({args}, out={target.text})")
            return _Val(target.text, shape, _F64, stored=True)
        self.free(*operands)  # freed first: exact-alias out= is well-defined
        idx = self.plan.alloc(shape)
        self.out.emit(f"{func}({args}, out={self._buf(idx)})")
        return _Val(self._buf(idx), shape, _F64, slots=frozenset({idx}))

    def schedule(
        self, expr: Expr, ctx: _Ctx, target: Optional[_Val] = None
    ) -> _Val:
        e = lambda x: self.schedule(x, ctx)  # noqa: E731
        if isinstance(expr, Literal):
            return _Val(
                repr(expr.value), (), None,
                is_bool=isinstance(expr.value, bool),
            )
        if isinstance(expr, ScalarRef):
            return _Val(f"__s_{expr.name}", (), None)
        if isinstance(expr, FieldAccess):
            return ctx.access(expr)
        if isinstance(expr, AxisIndexExpr):
            return ctx.axis_index(expr)
        if isinstance(expr, BinOp):
            left, right = e(expr.left), e(expr.right)
            pair = (left, right)
            if expr.op == "and":
                return self._inline(
                    f"np.logical_and({left.text}, {right.text})", pair, True
                )
            if expr.op == "or":
                return self._inline(
                    f"np.logical_or({left.text}, {right.text})", pair, True
                )
            if expr.op in _CMP_OPS:
                return self._inline(
                    f"({left.text} {expr.op} {right.text})", pair, True
                )
            shape = _broadcast(left.shape, right.shape)
            if self._eligible(shape, pair):
                return self._ufunc(_UFUNC_BINOPS[expr.op], pair, shape, target)
            return self._inline(f"({left.text} {expr.op} {right.text})", pair)
        if isinstance(expr, UnaryOp):
            operand = e(expr.operand)
            if expr.op == "not":
                return self._inline(
                    f"np.logical_not({operand.text})", (operand,), True
                )
            if self._eligible(operand.shape, (operand,)):
                return self._ufunc(
                    "np.negative", (operand,), operand.shape, target
                )
            return self._inline(f"(-{operand.text})", (operand,))
        if isinstance(expr, Call):
            args = tuple(e(a) for a in expr.args)
            shape = _broadcast(*[a.shape for a in args])
            if self._eligible(shape, args):
                return self._ufunc(_NP_FUNCS[expr.func], args, shape, target)
            arg_text = ", ".join(a.text for a in args)
            return self._inline(f"{_NP_FUNCS[expr.func]}({arg_text})", args)
        if isinstance(expr, Ternary):
            cond, then, orelse = e(expr.cond), e(expr.then), e(expr.orelse)
            shape = _broadcast(cond.shape, then.shape, orelse.shape)
            if self._eligible(shape, (then, orelse)) and cond.is_bool:
                # np.where has no out=: assign the else branch, then copy
                # the then branch over the masked lanes. The slot is taken
                # *before* the operands are freed — the two-step write must
                # not alias them.
                idx = self.plan.alloc(shape)
                self.out.emit(f"{self._buf(idx)}[...] = {orelse.text}")
                self.out.emit(
                    f"np.copyto({self._buf(idx)}, {then.text}, "
                    f"where={cond.text})"
                )
                self.free(cond, then, orelse)
                return _Val(self._buf(idx), shape, _F64, slots=frozenset({idx}))
            return self._inline(
                f"np.where({cond.text}, {then.text}, {orelse.text})",
                (cond, then, orelse),
            )
        raise TypeError(f"cannot generate code for {type(expr).__name__}")


def _local_arrays(kernel: Kernel) -> Dict[str, Tuple[str, tuple, tuple]]:
    """(driver variable, shape, origin) of every kernel-local array: the
    compute domain grown by the array's extent."""
    ni, nj, nk = kernel.domain
    return {
        name: (
            f"__loc_{name}",
            (ni - e.i_lo + e.i_hi, nj - e.j_lo + e.j_hi, nk - e.k_lo + e.k_hi),
            (-e.i_lo, -e.j_lo, -e.k_lo),
        )
        for name, e in kernel.local_arrays.items()
    }


def _bind_locals(
    kernel: Kernel, out: _SourceBuilder, plan: _BufferPlan,
    registers: FrozenSet[str], needing_zero: FrozenSet[Tuple[Kernel, str]],
) -> Dict[str, int]:
    """Bind the kernel-local arrays to pooled slots, zeroing the ones with
    a read the kernel's writes ahead of it do not cover (``needing_zero``:
    :attr:`repro.sdfg.analysis.Coverage.locals_needing_zero`). Returns the
    slot of each, to be freed once the kernel's code is emitted. A local
    among ``registers`` has no array: the kernel's loop nest holds it per
    point."""
    slots = {}
    for name, (var, shape, _) in _local_arrays(kernel).items():
        if name in registers:
            continue
        slots[var] = plan.alloc(shape)
        out.emit(f"{var} = __B[{slots[var]}]")
        if (kernel, name) in needing_zero:
            out.emit(f"{var}.fill(0)")
    return slots


# ---------------------------------------------------------------------------
# kernel emission
# ---------------------------------------------------------------------------


def _kernel_source(
    kernel: Kernel, sdfg, out: _SourceBuilder, plan: _BufferPlan
) -> None:
    """Emit the NumPy body of one kernel (its locals are bound)."""
    em = _ExprEmitter(kernel, sdfg)
    for (k0, k1), statements in _sections(kernel):
        if kernel.order == "PARALLEL":
            for stmt, ext in statements:
                _emit_stmt(kernel, em, out, stmt, ext, plan, krng=(k0, k1))
        else:
            if kernel.order == "FORWARD":
                out.emit(f"for __k in range({k0}, {k1}):")
            else:
                out.emit(f"for __k in range({k1 - 1}, {k0 - 1}, -1):")
            out.indent += 1
            for stmt, ext in statements:
                _emit_stmt(kernel, em, out, stmt, ext, plan, k_src="__k")
            out.indent -= 1


def _sections(kernel: Kernel):
    """((k0, k1), statements) of every section with a non-empty interval
    clipped to the kernel's domain."""
    nk = kernel.domain[2]
    for section in kernel.sections:
        k0, k1 = section.interval.resolve(nk)
        k0, k1 = max(k0, 0), min(k1, nk)
        if k0 < k1:
            yield (k0, k1), section.statements


def _resolve_ranges(kernel: Kernel, stmt: Assign, ext):
    """Where one statement executes: ``(irng, jrng, guard)``, or ``None``
    when its region is empty on this rank. A region either restricts the
    ranges (``guard`` is ``None``) or, under ``regions_as_predication``,
    keeps the full ranges and returns the region rectangle as ``guard``."""
    ni, nj, _ = kernel.domain
    irng, jrng = (ext.i_lo, ni + ext.i_hi), (ext.j_lo, nj + ext.j_hi)
    if stmt.region is None:
        return irng, jrng, None
    from repro.dsl.bounds import region_ranges

    restricted = region_ranges(stmt.region, kernel.domain, kernel.bounds, ext)
    if restricted is None:
        return None
    if kernel.schedule.regions_as_predication:
        return irng, jrng, restricted
    return restricted[0], restricted[1], None


def _finish_stmt(sched, out, stmt, ctx, conds: List[_Val]) -> None:
    """Schedule the RHS and write the statement target.

    Unconditional statements hand the target to the scheduler so the root
    op can write it directly with ``out=``. Conditional statements become
    ``np.copyto(target, value, where=cond)`` when that is provably
    equivalent to the classic ``target = np.where(cond, value, target)``
    (boolean condition, float64 target, and neither value nor condition is
    a bare view of the target — expression operands are materialized before
    the copy runs, so only direct views can overlap)."""
    lhs = ctx.access(FieldAccess(stmt.target.name, (0, 0, 0)))
    if conds:
        val = sched.schedule(stmt.value, ctx)
        cond = (
            " & ".join(f"({c.text})" for c in conds)
            if len(conds) > 1
            else conds[0].text
        )
        safe = (
            lhs.dtype == _F64
            and all(c.is_bool for c in conds)
            and all(c.base is None or c.base != lhs.base for c in conds)
            and (val.base is None or val.base != lhs.base)
        )
        if safe:
            out.emit(f"np.copyto({lhs.text}, {val.text}, where={cond})")
        else:
            out.emit(f"{lhs.text} = np.where({cond}, {val.text}, {lhs.text})")
        sched.free(val, *conds)
    else:
        val = sched.schedule(stmt.value, ctx, target=lhs)
        if not val.stored:
            out.emit(f"{lhs.text} = {val.text}")
        sched.free(val)


def _emit_stmt(
    kernel, em, out, stmt, ext, plan, krng=None, k_src: Optional[str] = None
) -> None:
    """One statement over a 3D block (``krng``) or one level (``k_src``)."""
    ranges = _resolve_ranges(kernel, stmt, ext)
    if ranges is None:
        return
    irng, jrng, guard = ranges
    if krng is not None and em.axes(stmt.target.name) == "IJ":
        if krng[1] - krng[0] != 1:
            raise ValueError(
                f"cannot write 2D field {stmt.target.name!r} over a "
                "multi-level interval"
            )
        krng, k_src = None, str(krng[0])
    ctx = _Ctx(em, irng, jrng, krng=krng, k_src=k_src)
    sched = _StmtScheduler(out, plan)
    conds: List[_Val] = []
    if guard is not None:
        conds.append(ctx.region_mask(guard, out))
    if stmt.mask is not None:
        conds.append(sched.schedule(stmt.mask, ctx))
    _finish_stmt(sched, out, stmt, ctx, conds)


class _Generator:
    """One pass over an SDFG that writes its driver and plans its memory.
    The driver takes a timing buffer ``__KT``: ``None``, or a list each
    kernel adds its seconds and calls to. With ``lower`` (the
    ``compiled`` backend) the body of a kernel that has a bit-exact
    scalar form is a call into ``__K``, the plan's list of C entry
    points; every other kernel is NumPy emission.

    A transient is one planned value per generation
    (:attr:`repro.sdfg.analysis.Coverage.lifetimes`), allocated where
    the generation's storage begins and freed after its last toucher,
    named by :func:`repro.sdfg.plan.generation_key`. A transient of
    several generations has its driver name bound to each where it
    begins, so NumPy emission reads and writes the generation it is in;
    a lowered kernel's argument names the generation of its call site."""

    def __init__(self, sdfg, lower: bool = False):
        self.sdfg = sdfg
        self.lower = lower
        self.kernel_labels: List[str] = []
        self.units: List[UnitImage] = []
        self.fallback_kernels: List[Tuple[str, str]] = []
        self._n_callbacks = 0
        self._plan = _BufferPlan()
        self._transient_values: Dict[str, int] = {}
        #: transient of several generations → the one emission is in
        self._generation: Dict[str, str] = {}
        #: (kernel, local) pairs to zero where the kernel binds them
        self._locals_needing_zero: FrozenSet[Tuple[Kernel, str]] = frozenset()

    def image(self, **compiled) -> PlanImage:
        source = self._generate()
        offsets, runtime_bytes = plan_layout(
            self._plan.nbytes(), self._plan.events
        )
        return PlanImage(
            source, self._plan.specs,
            self._plan.events, offsets, runtime_bytes,
            self._transient_values, self.kernel_labels,
            self.units, self.fallback_kernels, **compiled,
        )

    # ------------------------------------------------------------------
    def _generate(self) -> str:
        sdfg = self.sdfg
        out = _SourceBuilder()
        out.emit("def __program(__A, __B, __P, __S, __KT, __T):")
        out.indent += 1
        for name, desc in sdfg.arrays.items():
            out.emit(f"{name} = __A[{name!r}]")
        tasklet_outputs = {
            node.output
            for state in sdfg.states
            for node in state.nodes
            if isinstance(node, Tasklet)
        }
        scalar_names = sorted(self._collect_scalar_names() - tasklet_outputs)
        for name in scalar_names:
            out.emit(f"__s_{name} = __S[{name!r}]")
        out.emit()

        # a transient owns bytes of the slab per generation, from the node
        # that begins it to its last toucher before the next (a loop it
        # reaches into widens that to the whole loop). A transient of
        # several generations has its name bound to each where it begins,
        # and a kernel call names the generation it meets. One with a read
        # that earlier writes do not cover (the S202/S204 condition) has
        # one generation and is zeroed as it is born — per loop
        # iteration, so it starts at zero as a temporary does on every
        # call; the rest are used as the slab comes
        cov = coverage(sdfg)
        needing_zero = set(cov.transients_needing_zero)
        self._locals_needing_zero = cov.locals_needing_zero
        lifetimes = cov.lifetimes
        born: Dict[int, List[Tuple[str, str]]] = {}
        dying: Dict[int, List[str]] = {}
        begins: Dict[int, List[Tuple[str, str]]] = {}
        for name in sdfg.transients():
            generations = lifetimes.get(name)
            if generations is None:
                # nothing touches it: bound like the rest, live for no node
                self._alloc_transient(name, name)
                self._plan.free(self._transient_values[name])
                continue
            for index, gen in enumerate(generations):
                key = generation_key(name, index)
                born.setdefault(gen.first, []).append((name, key))
                dying.setdefault(gen.last, []).append(key)
                if len(generations) > 1:
                    begins.setdefault(gen.start, []).append((name, key))

        # control-flow structure: linear chain with counted loop regions
        loop_starts = {lp.first: lp for lp in sdfg.loops}
        loop_depth = []
        pos = 0
        for idx, state in enumerate(sdfg.states):
            if idx in loop_starts:
                lp = loop_starts[idx]
                var = f"__it{len(loop_depth)}"
                out.emit(f"for {var} in range({lp.count}):")
                out.indent += 1
                loop_depth.append(lp)
            out.emit(f"# --- state {state.name} ---")
            for node in state.nodes:
                for name, key in born.get(pos, ()):
                    self._alloc_transient(name, key)
                    if name in needing_zero:
                        out.emit(f"{name}.fill(0)")
                for name, key in begins.get(pos, ()):
                    self._generation[name] = key
                    out.emit(f"{name} = __A[{key!r}]")
                self._emit_node(node, out)
                for name in dying.get(pos, ()):
                    self._plan.free(self._transient_values[name])
                pos += 1
            while loop_depth and loop_depth[-1].last == idx:
                loop_depth.pop()
                out.indent -= 1
        out.emit("return None")
        return out.source()

    def _alloc_transient(self, name: str, key: str) -> None:
        desc = self.sdfg.arrays[name]
        self._transient_values[key] = self._plan.alloc(desc.shape, desc.dtype)

    def _emit_node(self, node, out: _SourceBuilder) -> None:
        if isinstance(node, Kernel):
            # its two slots of the timing buffer: seconds, calls
            slot = 2 * len(self.kernel_labels)
            self.kernel_labels.append(node.label)
            out.emit(f"# kernel {node.label}")
            out.emit("if __KT is not None: __t0 = __perf_counter()")
            self._emit_kernel(node, out)
            out.emit(
                f"if __KT is not None: __KT[{slot}] += __perf_counter() "
                f"- __t0; __KT[{slot + 1}] += 1"
            )
        elif isinstance(node, Tasklet):
            code = node.code
            for name in node.inputs:
                code = _replace_word(code, name, f"__s_{name}")
            out.emit(f"__s_{node.output} = {code}")
        elif isinstance(node, Callback):
            # ``__CB`` holds the callbacks in program order: the
            # materialised plan builds it from the SDFG's Callback nodes
            out.emit(f"__CB[{self._n_callbacks}](__A)  # callback {node.label}")
            self._n_callbacks += 1
        elif isinstance(node, StencilComputation):
            raise ValueError(
                f"library node {node.label!r} must be expanded before "
                "code generation (call sdfg.expand_library_nodes())"
            )

    def _emit_kernel(self, node: Kernel, out: _SourceBuilder) -> None:
        """A kernel between the binding of its pooled locals and their
        release: a call into ``__K`` when it is lowered to C, else its
        NumPy emission."""
        unit = None
        if self.lower:
            from repro.sdfg import codegen_compiled as lowering

            try:
                unit = lowering.lower_kernel(node, self.sdfg)
            except lowering.IneligibleKernel as exc:
                self.fallback_kernels.append((node.label, str(exc)))
        registers = unit.registers if unit else frozenset()
        local_slots = _bind_locals(
            node, out, self._plan, registers, self._locals_needing_zero
        )
        if unit is None:
            _kernel_source(node, self.sdfg, out, self._plan)
        else:
            from repro.sdfg.loopnest import print_c

            # the arrays are the pointer tuple the bound plan made for
            # this call site (``__P``), the OpenMP width is the call's
            index = len(self.units)
            self.units.append(UnitImage(
                unit.label, print_c(unit.tree), unit.arg_specs,
                list(unit.tree.scalars),
                [local_slots.get(a.runtime, self._generation.get(
                    a.runtime, a.runtime)) for a in unit.tree.arrays],
            ))
            args = [f"*__P[{index}]"]
            args += [f"__s_{s}" for s in unit.tree.scalars]
            out.emit(f"__K[{index}]({', '.join(args)}, __T)")
        # the kernel's locals are dead past this point; later kernels reuse them
        for idx in local_slots.values():
            self._plan.free(idx)

    def _collect_scalar_names(self):
        names = set()
        from repro.dsl.ir import walk_expr

        for kernel in self.sdfg.all_kernels():
            for stmt, _ in kernel.statements():
                for e in walk_expr(stmt.value):
                    if isinstance(e, ScalarRef):
                        names.add(e.name)
                if stmt.mask is not None:
                    for e in walk_expr(stmt.mask):
                        if isinstance(e, ScalarRef):
                            names.add(e.name)
        for state in self.sdfg.states:
            for node in state.nodes:
                if isinstance(node, Tasklet):
                    names.update(node.inputs)
        return names


def generate(sdfg, backend: str = "numpy") -> PlanImage:
    """SDFG (expanded) → the image of its plan on ``backend``:
    ``"numpy"`` emits every kernel as NumPy, ``"compiled"`` lowers every
    kernel that has a bit-exact scalar form to C
    (:mod:`repro.sdfg.codegen_compiled`). ``"compiled"`` raises
    :class:`repro.runtime.jit.JitUnavailableError` when no C compiler is
    available."""
    if backend == "numpy":
        return _Generator(sdfg).image()
    if backend != "compiled":
        raise ValueError(f"unknown compile backend {backend!r}")
    if not jit.available():
        raise jit.JitUnavailableError("no C compiler available")
    from repro.sdfg.codegen_compiled import _C_PREAMBLE

    return _Generator(sdfg, lower=True).image(
        threads=jit.default_threads(), preamble=_C_PREAMBLE
    )


def _replace_word(code: str, name: str, repl: str) -> str:
    return re.sub(rf"\b{re.escape(name)}\b", repl, code)


def compile_sdfg(sdfg, backend: str = "numpy") -> CompiledSDFG:
    """Expand (if needed) and compile an SDFG into a callable program on
    ``backend`` (:func:`generate`).

    Prefer :func:`repro.runtime.compile_cache.get_or_compile` on hot paths:
    it reads the plan's image from its record when one is stored.
    """
    if any(state.library_nodes for state in sdfg.states):
        sdfg.expand_library_nodes()
    return CompiledSDFG(PlanInputs.of(sdfg), generate(sdfg, backend))
