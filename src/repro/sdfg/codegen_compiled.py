"""The ``compiled`` backend's lowering: SDFG kernels → scalar loop nests.

Where the NumPy emission of :mod:`repro.sdfg.codegen` writes each fused
kernel as a sequence of full-domain ``out=``-scheduled ufunc calls, this
module lowers it to a single scalar loop nest for the system C compiler
(:mod:`repro.runtime.jit`). Each kernel is analysed and lowered *once* to
a loop-nest tree (:mod:`repro.sdfg.loopnest`); the one generator,
:func:`repro.sdfg.codegen.generate` with ``backend="compiled"``, prints
C from that tree into the plan's image (the plan,
:class:`~repro.sdfg.plan.CompiledSDFG`, is materialised from the image
and needs nothing of this module). The nest realizes the
machine model's decisions for real:

- **local storage and on-the-fly fusion** (Sec. VI-A): a kernel local
  lives in a per-point register when one fusion cluster owns it, or when
  it is computed from the kernel's inputs alone and can be evaluated
  again wherever it is read (priced by
  :func:`repro.core.perfmodel.recompute_pays`); only what is left is an
  array of the program's slab. A masked assignment is a select between
  names, never a branch;
- **k-blocking** with ``CPU_K_BLOCK`` (:mod:`repro.core.perfmodel`) so a
  kernel's working set stays cache-resident between statements, with the
  block size shrunk by :func:`repro.core.heuristics.select_cpu_tiles`
  until it fits the machine's last-level cache;
- **i-tiling** from the kernel's tuned ``schedule.tile_sizes``;
- **in-rank threading** over the outer i/tile loop (OpenMP),
  ``REPRO_THREADS`` sets the width.

Bit-exactness against the NumPy backend is the hard contract. A kernel is
only lowered when every operation in it has a scalar form provably
bit-identical to the NumPy ufunc (fastmath stays off, ``-ffp-contract=off``
forbids FMA contraction, min/max/sign replicate NumPy's NaN and signed-zero
behaviour, int64 arithmetic wraps two's-complement). Anything outside that
whitelist — transcendentals (libm is not bit-identical to NumPy), ``**``,
``%``, ``//``, exotic dtypes, self-reads at an offset — raises
:class:`IneligibleKernel` and that one kernel keeps its NumPy emission
*within the same plan*; the rest of the program still runs compiled.

Loop orders are chosen per kernel so scalar execution provably matches
NumPy's statement-at-a-time semantics:

- PARALLEL kernels run statement-major inside each k-block. Blocking is
  legal unless a statement reads an in-kernel-written name at dk>0, or at
  any dk≠0 written by a *later* statement, or reads a written field that
  has no K axis across statements — those force a single full-K block.
- FORWARD/BACKWARD kernels run column-major (all levels of one (i,j)
  column before the next). A statement that reads an in-kernel-written
  name at a horizontal offset makes the kernel ineligible: it keeps its
  NumPy emission, whose order is level by level.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

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
    expr_reads,
    walk_expr,
)
from repro.runtime import jit
from repro.sdfg.codegen import _local_arrays, _resolve_ranges, _sections
from repro.sdfg.loopnest import (
    Array,
    Axis,
    Clamp,
    Guard,
    Let,
    Lit,
    Loop,
    Nest,
    Op,
    Ref,
    Reg,
    Scalar,
    Store,
    Strip,
)
from repro.sdfg.nodes import Kernel, stmt_flops

__all__ = ["IneligibleKernel", "lower_kernel"]


class IneligibleKernel(Exception):
    """This kernel has no bit-exact scalar lowering; use ufunc emission."""


#: dtype.str → scalar type tag: "d" double, "l" int64, "b" bool
_TAGS = {"<f8": "d", "<i8": "l", "|b1": "b"}
_TAG_DTYPE = {tag: dstr for dstr, tag in _TAGS.items()}

#: NaN- and signed-zero-exact scalar equivalents of the NumPy ufuncs
#: (probed: np.maximum/minimum return the *second* argument on ties, NaN
#: propagates from either side; np.sign maps ±0.0 → +0.0 and NaN → NaN).
#: Each is written as selects on one comparison, like every select of a
#: kernel body (the fused PPM kernel ran 1.2x slower with
#: ``(a > b || a != a) ? a : b``).
_C_PREAMBLE = """\
#include <math.h>
#include <stdint.h>

static inline double __r_fmax(double a, double b)
{ double t = a > b ? a : b; return a != a ? a : t; }
static inline double __r_fmin(double a, double b)
{ double t = a < b ? a : b; return a != a ? a : t; }
static inline double __r_sign(double x)
{ return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : (x != x ? x : 0.0)); }
static inline int64_t __r_lmax(int64_t a, int64_t b)
{ return a > b ? a : b; }
static inline int64_t __r_lmin(int64_t a, int64_t b)
{ return a < b ? a : b; }
static inline int64_t __r_labs(int64_t x)
{ return x < 0 ? (int64_t)(0u - (uint64_t)x) : x; }
static inline int64_t __r_lsign(int64_t x)
{ return x > 0 ? 1 : (x < 0 ? -1 : 0); }
"""


def _promote(a: str, b: str) -> str:
    """NumPy's result type of two tags: double over int64 over bool."""
    return min(a, b, key="dlb".index)


@dataclasses.dataclass
class _PlanStmt:
    """One executable statement with its resolved iteration ranges."""

    stmt: Assign
    #: position in its section, in program order
    idx: int
    irng: Tuple[int, int]
    jrng: Tuple[int, int]
    #: region predication rectangle (compute-relative) or None
    guard: Optional[Tuple[Tuple[int, int], Tuple[int, int]]]
    #: the statement as tree nodes (sequential kernels: lowered in place)
    nodes: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class _Plane:
    """One fusion cluster of a PARALLEL section, lowered: where it runs
    and what it does at each point (register definitions first)."""

    irng: Tuple[int, int]
    jrng: Tuple[int, int]
    guard: Optional[Tuple[Tuple[int, int], Tuple[int, int]]]
    body: list


@dataclasses.dataclass
class KernelUnit:
    """One lowered kernel: its loop-nest tree plus call metadata."""

    label: str
    #: printed as C when the image is generated
    tree: Nest
    #: (shape, dtype.str) per array argument, validated at each call
    arg_specs: List[Tuple[Tuple[int, ...], str]]
    #: kernel locals the tree holds no array of (registers, or dead)
    registers: frozenset = frozenset()


def _shifted(delta, offset) -> Tuple[int, int]:
    return delta[0] + offset[0], delta[1] + offset[1]


class _Lowerer:
    """Analysis of one kernel, then its lowering to a loop-nest tree.

    Construction runs every legality check and lowers every statement
    that executes (so an ineligible kernel raises before any tree or text
    exists); :meth:`build` arranges the lowered statements into the loop
    shape the analysis chose.

    Kernel locals become per-point registers where that is the same
    program. A local every access to which is at offset 0 inside one
    fusion cluster is *pinned*: its statements stay where they are and
    only their target changes. A local computed from nothing but kernel
    inputs (names no statement writes) and other such locals *floats*:
    its statements have the same value wherever and whenever they run,
    so each cluster replays them itself, at every horizontal offset it
    reads the local at — the neighbour read that used to split the
    cluster, and the array behind it, are gone. Whether replaying is
    cheaper than the round trip through memory is
    :func:`repro.core.perfmodel.recompute_pays`'s call. What is left is
    an array of the program's slab, as before.
    """

    def __init__(self, kernel: Kernel, sdfg, machine):
        self.kernel = kernel
        self.sdfg = sdfg
        self.machine = machine
        self.arrays: Dict[str, Array] = {}
        self.scalars: List[str] = []
        #: (k range, statements) per non-empty vertical section
        self.sections: List[Tuple[Tuple[int, int], List[_PlanStmt]]] = []
        #: PARALLEL kernels: the lowered clusters of each section
        self.planes: List[List[_Plane]] = []
        #: sequential kernels: the register definitions of a point body
        self.decls: list = []
        self.full_k = False
        #: (local, horizontal shift) → its register; the arrays in use
        self._regs: Dict[Tuple[str, Tuple[int, int]], Reg] = {}
        self._scope: Dict[Reg, None] = {}
        self._used: set = set()
        #: registers the statement being lowered evaluates ahead of itself
        self._hoisted: list = []
        self._collect()
        self._resolve()
        self._analyze()
        self._lower()

    def _flat(self) -> List[_PlanStmt]:
        return [ps for _, stmts in self.sections for ps in stmts]

    @property
    def registers(self) -> frozenset:
        return frozenset(self.kernel.local_arrays) - self._used

    # ---- argument collection -------------------------------------------

    def _collect(self) -> None:
        kernel, sdfg = self.kernel, self.sdfg
        #: in order of first use as the statements evaluate (reads, then
        #: the target) — the stencil's order, whatever the containers
        #: are called
        names: Dict[str, None] = {}
        scalars = set()
        for stmt, _ in kernel.statements():
            for acc in expr_reads(stmt):
                names[acc.name] = None
            names[stmt.target.name] = None
            for e in filter(None, (stmt.value, stmt.mask)):
                scalars.update(
                    n.name for n in walk_expr(e) if isinstance(n, ScalarRef)
                )
        local = _local_arrays(kernel)
        n_fields = 0
        for name in names:
            if name in local:
                runtime, shape, origin = local[name]
                param, axes, tag = f"t_{name}", "IJK", "d"
            else:
                desc = sdfg.arrays[name]
                tag = _TAGS.get(np.dtype(desc.dtype).str)
                if tag is None:
                    raise IneligibleKernel(
                        f"unsupported dtype {desc.dtype!r} for {name!r}"
                    )
                shape = tuple(desc.shape)
                if len(shape) != len(desc.axes) or not all(
                    isinstance(s, (int, np.integer)) and s > 0 for s in shape
                ):
                    raise IneligibleKernel(f"non-concrete shape for {name!r}")
                # positional, neither named after the container nor
                # ordered by its name: the same stencil on other fields
                # (a loop unrolled over the remapped fields) prints the
                # same text and is the same kernel to the JIT store
                param, runtime, axes = f"f{n_fields}", name, desc.axes
                n_fields += 1
                origin = kernel.origin_of(name)
            self.arrays[name] = Array(param, runtime, axes, origin, shape, tag)
        self.scalars = sorted(scalars)

    # ---- iteration-range resolution ------------------------------------

    def _resolve(self) -> None:
        kernel = self.kernel
        for (k0, k1), statements in _sections(kernel):
            plan_stmts = []
            for stmt, ext in statements:
                ranges = _resolve_ranges(kernel, stmt, ext)
                if ranges is None:
                    continue  # region empty on this rank
                axes = self.arrays[stmt.target.name].axes
                if axes == "K":
                    raise IneligibleKernel(
                        f"K-axis target {stmt.target.name!r}"
                    )
                if axes == "IJ" and k1 - k0 != 1:
                    raise IneligibleKernel(
                        f"2D target {stmt.target.name!r} over a "
                        "multi-level interval"
                    )
                plan_stmts.append(_PlanStmt(stmt, len(plan_stmts), *ranges))
            if plan_stmts:
                self.sections.append(((k0, k1), plan_stmts))
        if not self.sections:
            raise IneligibleKernel("no executable statements")

    # ---- legality analysis ----------------------------------------------

    def _analyze(self) -> None:
        flat = self._flat()
        writers: Dict[str, List[int]] = {}
        for idx, ps in enumerate(flat):
            writers.setdefault(ps.stmt.target.name, []).append(idx)
        parallel = self.kernel.order == "PARALLEL"
        for idx, ps in enumerate(flat):
            for acc in expr_reads(ps.stmt):
                if acc.name == ps.stmt.target.name and (
                    acc.offset != (0, 0, 0)
                    if parallel
                    else acc.offset[0] != 0 or acc.offset[1] != 0
                ):
                    # NumPy materializes a statement's full RHS before
                    # assigning; an in-place scalar loop would read
                    # already-updated points. Sequential kernels evaluate
                    # per level, so only *horizontal* self-reads clash —
                    # vertical self-reads are the solver recurrence both
                    # forms execute identically.
                    raise IneligibleKernel(
                        f"{ps.stmt.target.name!r} reads itself at offset "
                        f"{acc.offset}"
                    )
                widx = writers.get(acc.name)
                if not widx:
                    continue
                if not parallel and (acc.offset[0] != 0 or acc.offset[1] != 0):
                    raise IneligibleKernel(
                        f"a sweep reads {acc.name!r}, which it writes, at "
                        f"offset {acc.offset}"
                    )
                if "K" not in self.arrays[acc.name].axes:
                    if any(w != idx for w in widx):
                        self.full_k = True
                    continue
                dk = acc.offset[2]
                if dk == 0:
                    continue
                if dk > 0 or any(w > idx for w in widx):
                    self.full_k = True

    # ---- statement fusion -----------------------------------------------

    @staticmethod
    def _fuse_clusters(
        stmts: List[_PlanStmt], floating=frozenset()
    ) -> List[List[_PlanStmt]]:
        """Partition a section's statements into maximal consecutive runs
        that may execute fused in one loop body (per grid point).

        Fusing statements A;B per point is bit-identical to running A's
        full plane before B's unless a point of B observes a *different*
        point of the plane mid-update. Hence a statement joins the current
        cluster only when (1) it iterates the exact same i/j ranges and
        region guard, (2) it reads no cluster-written name at a nonzero
        offset (RAW: it would see partially-updated neighbours), and (3)
        it writes no name the cluster reads at a nonzero offset (WAR: an
        earlier statement's neighbour read would see the new value).
        Zero-offset dependencies are safe — at each point the cluster
        executes its statements in program order.

        Statements of ``floating`` locals belong to no cluster (whichever
        reads the local replays them) and reads of those locals are no
        hazard: what they stand for is computed from names nothing writes.
        """
        clusters: List[List[_PlanStmt]] = []
        cur: List[_PlanStmt] = []
        writes: set = set()
        nonzero_reads: set = set()

        def flush():
            nonlocal cur
            if cur:
                clusters.append(cur)
            cur = []
            writes.clear()
            nonzero_reads.clear()

        for ps in stmts:
            if ps.stmt.target.name in floating:
                continue
            reads = [
                acc for acc in expr_reads(ps.stmt) if acc.name not in floating
            ]
            if cur:
                head = cur[0]
                compatible = (
                    ps.irng == head.irng
                    and ps.jrng == head.jrng
                    and ps.guard == head.guard
                    and ps.stmt.target.name not in nonzero_reads
                    and not any(
                        acc.name in writes and acc.offset != (0, 0, 0)
                        for acc in reads
                    )
                )
                if not compatible:
                    flush()
            cur.append(ps)
            writes.add(ps.stmt.target.name)
            for acc in reads:
                if acc.offset != (0, 0, 0):
                    nonzero_reads.add(acc.name)
        flush()
        return clusters

    # ---- registers --------------------------------------------------------

    def _local_uses(self) -> Dict[str, Dict[int, set]]:
        """Local → section index → positions of the statements of that
        section that read or write it."""
        uses: Dict[str, Dict[int, set]] = {}
        for sidx, (_, stmts) in enumerate(self.sections):
            for ps in stmts:
                names = {acc.name for acc in expr_reads(ps.stmt)}
                names.add(ps.stmt.target.name)
                for name in names & set(self.kernel.local_arrays):
                    uses.setdefault(name, {}).setdefault(sidx, set()).add(
                        ps.idx
                    )
        return uses

    def _pinned(self, sidx: int, cluster: List[_PlanStmt]) -> set:
        """The locals nothing but ``cluster`` (statements of section
        ``sidx`` that run per point, in order) touches, and only at
        offset 0: each point's value is read at that point alone."""
        members = {ps.idx for ps in cluster}
        moved = {
            acc.name for ps in cluster for acc in expr_reads(ps.stmt)
            if acc.offset != (0, 0, 0)
        }
        return {
            name for name, by_section in self._uses.items()
            if set(by_section) == {sidx} and by_section[sidx] <= members
        } - moved

    def _floating(self, sidx: int, stmts: List[_PlanStmt]) -> set:
        """The locals only section ``sidx`` touches whose statements may
        be replayed at any point, any time: unregioned, reading no I/J
        index, no level but their own of a local, and nothing the kernel
        writes other than locals of the same kind."""
        written = {ps.stmt.target.name for ps in self._flat()}
        floating = {
            name for name, by_section in self._uses.items()
            if set(by_section) == {sidx}
        }
        while True:
            before = len(floating)
            for ps in stmts:
                reads = expr_reads(ps.stmt)
                floating -= {
                    acc.name for acc in reads if acc.offset[2] != 0
                }
                if ps.stmt.target.name in floating and (
                    ps.guard is not None
                    or ps.stmt.region is not None
                    or any(
                        isinstance(n, AxisIndexExpr) and n.axis != "K"
                        for e in filter(None, (ps.stmt.value, ps.stmt.mask))
                        for n in walk_expr(e)
                    )
                    or any(
                        acc.name in written and acc.name not in floating
                        for acc in reads
                    )
                ):
                    floating.discard(ps.stmt.target.name)
            if len(floating) == before:
                return floating

    @staticmethod
    def _replays(stmts, cluster, floating) -> Dict[int, List[Tuple[int, int]]]:
        """Position → the horizontal shifts at which that statement runs
        inside ``cluster``: ``(0, 0)`` for its members, and for the
        statements of floating locals ahead of them every shift some
        later replayed statement reads the local at (a backward pass:
        an unmasked write defines all versions asked for so far)."""
        members = {ps.idx for ps in cluster}
        need: Dict[str, set] = {}
        runs: Dict[int, List[Tuple[int, int]]] = {}
        for ps in reversed(stmts[: cluster[-1].idx + 1]):
            name = ps.stmt.target.name
            if ps.idx in members:
                at = [(0, 0)]
            elif name in floating:
                at = sorted(need.get(name, ()))
                if ps.stmt.mask is None:
                    need.pop(name, None)
            else:
                continue
            if at:
                runs[ps.idx] = at
            for acc in expr_reads(ps.stmt):
                if acc.name in floating:
                    need.setdefault(acc.name, set()).update(
                        _shifted(delta, acc.offset) for delta in at
                    )
        return runs

    def _unaffordable(self, stmts, runs, floating) -> set:
        """Floating locals that stay arrays after all: replaying their
        statements everywhere ``runs`` asks for costs more arithmetic
        than the memory round trip it saves. (Where a replay runs needs
        no check: extent inference made every statement's range cover
        what its readers reach, through any chain of offsets.)"""
        from repro.core.perfmodel import recompute_pays

        times: Dict[int, int] = {}
        for at in runs:
            for idx, deltas in at.items():
                times[idx] = times.get(idx, 0) + len(deltas)
        drop = set()
        for name in floating:
            mine = [ps for ps in stmts if ps.stmt.target.name == name]
            extra = [max(times.get(ps.idx, 0) - 1, 0) for ps in mine]
            flops = sum(stmt_flops(ps.stmt) * n for ps, n in zip(mine, extra))
            # stored instead: written once, loaded by each further use
            nbytes = 8 * (1 + max(extra, default=0))
            if flops and not recompute_pays(flops, nbytes, self.machine):
                drop.add(name)
        return drop

    def _reg(self, name: str, delta: Tuple[int, int]) -> Reg:
        reg = self._regs.get((name, delta))
        if reg is None:
            tail = "".join(
                f"_{ax}{'m' if d < 0 else 'p'}{abs(d)}"
                for ax, d in zip("ij", delta) if d
            )
            reg = self._regs[name, delta] = Reg(
                f"{len(self._regs)}_{name}{tail}"
            )
        self._scope[reg] = None
        return reg

    def _access(self, acc: FieldAccess, regs, delta):
        if acc.name in regs:
            return self._reg(acc.name, _shifted(delta, acc.offset))
        self._used.add(acc.name)
        return Ref(
            self.arrays[acc.name], (*_shifted(delta, acc.offset), acc.offset[2])
        )

    def _emit(self, ps: _PlanStmt, regs, delta=(0, 0)) -> list:
        """The statement, moved by ``delta``, as tree nodes: the values
        its selects choose between, then the assignment itself. A masked
        assignment selects between the new value and the old."""
        stmt = ps.stmt
        self._hoisted = nodes = []
        target = self._access(stmt.target, regs, delta)
        value = self._convert(self._value(stmt.value, regs, delta), target.tag)
        if stmt.mask is not None:
            value = self._select(
                self._value(stmt.mask, regs, delta), value, target
            )
        if isinstance(target, Reg):
            return nodes + [Let(target, value)]
        return nodes + [Store(target, value)]

    def _atom(self, value):
        """``value`` as something a select may choose: a name or a
        constant. Anything else is evaluated into a register of its own
        first. gcc turns ``c ? a + b : x[i]`` into a branch as it parses
        (an arm that may trap is not evaluated speculatively), merges the
        branches' conditions into boolean selects, and then cannot
        vectorize those ("relevant stmt not supported: patt = patt ?
        ...")."""
        if isinstance(value, (Reg, Lit, Scalar)):
            return value
        temp = self._regs["", len(self._regs)] = Reg(
            str(len(self._regs)), value.tag
        )
        self._hoisted.append(Let(temp, value, declare=True))
        return temp

    def _select(self, cond, then, orelse):
        """``cond ? then : orelse`` as selects on the leaves of ``cond``,
        each on one comparison: ``!c`` swaps the values, ``c0 && c1`` is
        ``c0 ? (c1 ? then : orelse) : orelse``, ``c0 || c1`` is
        ``c0 ? then : (c1 ? then : orelse)``."""
        then, orelse = self._atom(then), self._atom(orelse)
        op = cond.op if isinstance(cond, Op) else None
        if op == "not":
            return self._select(cond.args[0], orelse, then)
        if op == "and":
            inner = self._select(cond.args[1], then, orelse)
            return self._select(cond.args[0], inner, orelse)
        if op == "or":
            inner = self._select(cond.args[1], then, orelse)
            return self._select(cond.args[0], then, inner)
        if op is None or cond.tag != "b":  # a number: make it a truth value
            cond = Op("!=", (cond, Lit(0, cond.tag)), "b")
        return Op("select", (cond, then, orelse), _promote(then.tag, orelse.tag))

    def _convert(self, value, tag: str):
        """``value`` as a ``tag``, the way NumPy converts on assignment.
        A truth value becomes a double by selecting ``1.0`` or ``0.0``:
        no narrower per-point variable ever exists."""
        if value.tag == tag:
            return value
        if tag == "d" and value.tag == "b" and isinstance(value, Op):
            return self._select(value, Lit(1.0, "d"), Lit(0.0, "d"))
        return Op("cast", (value,), tag)

    def _declared(self, body: list) -> list:
        """``body`` behind the definitions of the registers it uses. All
        start at zero, like the temporaries they stand for."""
        decls = [Let(reg, Lit(0.0, "d"), declare=True) for reg in self._scope]
        self._scope = {}
        return decls + body

    def _lower(self) -> None:
        self._uses = self._local_uses()
        if self.kernel.order != "PARALLEL":
            for sidx, (_, stmts) in enumerate(self.sections):
                # column-major: a section's statements run per point, so
                # the whole section is one cluster
                regs = self._pinned(sidx, stmts)
                for ps in stmts:
                    ps.nodes = self._emit(ps, regs)
            # every register is one section's, so the point body of each
            # sweep may define them all
            self.decls = self._declared([])
            return
        for sidx, (_, stmts) in enumerate(self.sections):
            floating = self._floating(sidx, stmts)
            while True:
                clusters = self._fuse_clusters(stmts, floating)
                runs = [self._replays(stmts, c, floating) for c in clusters]
                drop = self._unaffordable(stmts, runs, floating)
                if not drop:
                    break
                floating -= drop
            planes = []
            for cluster, at in zip(clusters, runs):
                regs = floating | self._pinned(sidx, cluster)
                body = [
                    node
                    for idx in sorted(at) for delta in at[idx]
                    for node in self._emit(stmts[idx], regs, delta)
                ]
                head = cluster[0]
                planes.append(_Plane(
                    head.irng, head.jrng, head.guard, self._declared(body)
                ))
            self.planes.append(planes)

    # ---- typed values --------------------------------------------------

    def _value(self, expr: Expr, regs=frozenset(), delta=(0, 0)):
        """Lower one expression, moved by ``delta``, to a typed value
        tree, or raise :class:`IneligibleKernel` where no bit-exact scalar
        form exists."""
        if isinstance(expr, Literal):
            v = expr.value
            if isinstance(v, bool):
                return Lit(v, "b")
            if isinstance(v, int):
                return Lit(v, "l")
            if not math.isfinite(v):
                raise IneligibleKernel(f"non-finite literal {v!r}")
            return Lit(v, "d")
        if isinstance(expr, ScalarRef):
            return Scalar(expr.name)
        if isinstance(expr, AxisIndexExpr):
            return Axis(expr.axis.lower())
        if isinstance(expr, FieldAccess):
            return self._access(expr, regs, delta)
        if isinstance(expr, BinOp):
            a = self._value(expr.left, regs, delta)
            b = self._value(expr.right, regs, delta)
            if expr.op in ("and", "or", "<", ">", "<=", ">=", "==", "!="):
                tag = "b"
            elif expr.op == "/":
                tag = "d"
            elif expr.op in ("+", "-", "*"):
                tag = _promote(a.tag, b.tag)
                if tag == "b":
                    raise IneligibleKernel("arithmetic on two booleans")
            else:
                raise IneligibleKernel(f"operator {expr.op!r}")
            return Op(expr.op, (a, b), tag)
        if isinstance(expr, UnaryOp):
            x = self._value(expr.operand, regs, delta)
            if expr.op == "not":
                return Op("not", (x,), "b")
            if x.tag == "b":
                raise IneligibleKernel("negation of a boolean")
            return Op("neg", (x,), x.tag)
        if isinstance(expr, Call):
            f = expr.func
            args = tuple(self._value(a, regs, delta) for a in expr.args)
            if f in ("min", "max"):
                tag = _promote(args[0].tag, args[1].tag)
            elif f in ("sqrt", "abs", "floor", "ceil", "trunc", "sign"):
                tag = args[0].tag
                if tag == "b" and f != "abs":
                    raise IneligibleKernel(f"{f} of a boolean")
                if f == "sqrt":
                    tag = "d"
            else:
                raise IneligibleKernel(
                    f"{f}() has no bit-exact scalar form (libm differs "
                    "from NumPy)"
                )
            return Op(f, args, tag)
        if isinstance(expr, Ternary):
            c, a, b = (
                self._value(e, regs, delta)
                for e in (expr.cond, expr.then, expr.orelse)
            )
            tag = _promote(a.tag, b.tag)
            return self._select(
                c, self._convert(a, tag), self._convert(b, tag)
            )
        raise IneligibleKernel(f"expression {type(expr).__name__}")

    # ---- loop shapes ----------------------------------------------------

    def build(self, k_block: int, i_tile: Optional[int]) -> Nest:
        if self.kernel.order == "PARALLEL":
            body = self._parallel_shape(k_block, i_tile)
        else:
            body = self._column_shape(i_tile)
        # every kernel is printed under the one placeholder name: equal
        # nests print equal text, which is what the JIT store keys on
        arrays = [a for name, a in self.arrays.items() if name in self._used]
        return Nest(jit.SYMBOL, arrays, self.scalars, body)

    @staticmethod
    def _ij_nest(irng, jrng, i_tile, body) -> Loop:
        """The thread axis: a parallel i loop (tiled when the tile is
        narrower than the range) around a j loop."""
        tile = i_tile if i_tile and 0 < i_tile < irng[1] - irng[0] else None
        return Loop(
            "i", *irng, [Loop("j", *jrng, body)], parallel=True, tile=tile
        )

    def _k_sweep(self, krng, body) -> Loop:
        """The sequential k loop of a FORWARD/BACKWARD section."""
        return Loop("k", *krng, body, reverse=self.kernel.order == "BACKWARD")

    @staticmethod
    def _guarded(guard, body, ranges=()) -> list:
        """``body`` under ``ranges`` plus a region ``guard``."""
        if guard is not None:
            ranges = (*ranges, ("i", *guard[0]), ("j", *guard[1]))
        return [Guard(tuple(ranges), body)] if ranges else body

    def _plane(self, plane: _Plane, i_tile, klo, khi) -> Loop:
        """One cluster as a horizontal nest: i/j loops, the region guard,
        an inner k loop over ``[klo, khi)``, then its body."""
        # a cluster reads nothing it writes at another point
        # (_fuse_clusters), so its levels do not depend on each other
        body = [Loop("k", klo, khi, plane.body, independent=True)]
        return self._ij_nest(
            plane.irng, plane.jrng, i_tile, self._guarded(plane.guard, body)
        )

    def _parallel_shape(self, kb: int, i_tile) -> list:
        """Statement-major: per section, one plane per fusion cluster;
        k-blocked when legal, the block is shallower than the kernel and
        there is a second plane for the block to stay in cache for."""
        kmin = min(krng[0] for krng, _ in self.sections)
        kmax = max(krng[1] for krng, _ in self.sections)
        blocked = (
            not self.full_k
            and 0 < kb < (kmax - kmin)
            and sum(map(len, self.planes)) > 1
        )
        body = []
        for (krng, _), planes in zip(self.sections, self.planes):
            klo, khi = ("__k0", "__k1") if blocked else krng
            planes = [self._plane(p, i_tile, klo, khi) for p in planes]
            if blocked and planes:
                planes = [Clamp(klo, khi, *krng, "__b", "__be", planes)]
            body += planes
        if blocked:
            body = [Strip("__b", "__be", kmin, kmax, kb, body)]
        return body

    def _column_shape(self, i_tile) -> list:
        """Column-major: all levels of one (i, j) column before the next;
        statements narrower than the hull of all ranges are guarded."""
        flat = self._flat()
        irng = min(ps.irng[0] for ps in flat), max(ps.irng[1] for ps in flat)
        jrng = min(ps.jrng[0] for ps in flat), max(ps.jrng[1] for ps in flat)
        sweeps = []
        for krng, stmts in self.sections:
            body = []
            for ps in stmts:
                ranges = []
                if ps.irng != irng:
                    ranges.append(("i", *ps.irng))
                if ps.jrng != jrng:
                    ranges.append(("j", *ps.jrng))
                body += self._guarded(ps.guard, ps.nodes, ranges)
            sweeps.append(self._k_sweep(krng, body))
        for sweep in sweeps:
            sweep.body = self.decls + sweep.body
        return [self._ij_nest(irng, jrng, i_tile, sweeps)]


def lower_kernel(kernel: Kernel, sdfg) -> KernelUnit:
    """Lower one kernel to a :class:`KernelUnit`, or raise
    :class:`IneligibleKernel` when no bit-exact scalar form exists."""
    if kernel.order not in ("PARALLEL", "FORWARD", "BACKWARD"):
        raise IneligibleKernel(f"iteration order {kernel.order!r}")
    from repro.core.heuristics import select_cpu_tiles
    from repro.obs.metrics import observed_machine

    machine = observed_machine()
    low = _Lowerer(kernel, sdfg, machine)
    k_block, i_tile = select_cpu_tiles(kernel, sdfg, machine)
    tree = low.build(k_block, i_tile)
    specs = [(tuple(a.shape), _TAG_DTYPE[a.tag]) for a in tree.arrays]
    return KernelUnit(kernel.label, tree, specs, low.registers)
