"""Data-movement, instruction-mix and lifetime analysis over SDFGs.

The cost queries power the model-driven performance engineering
discipline (Sec. VI): exact per-kernel byte counts, arithmetic
intensities, and the program-wide load/store fraction the paper measures
with PAPI (Sec. VIII: 40.15% of executed instructions were load/store
operations).

The lifetime queries (:func:`uncovered_reads`, :func:`dead_transients`)
answer, with the exact :class:`~repro.sdfg.subsets.Range` of every
statement, whether storage the toolchain owns — SDFG transients and
kernel-local arrays — is written before it is read. They are the one
implementation behind both the code generator's zero-fill decision
(:func:`transients_needing_zero`: pooled buffers hold arbitrary data) and
the ``repro.lint`` S202/S204/S205 rules. :func:`transient_lifetimes` says
which values a transient takes — a new one wherever a write covers every
later read — and between which nodes each has to keep its storage, which
is what the code generator's memory planner lays a program's slab out
from.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from repro.dsl.bounds import region_ranges
from repro.dsl.ir import Assign, FieldAccess, UnaryOp, expr_reads, walk_expr
from repro.sdfg.nodes import Callback, Kernel, Node
from repro.sdfg.subsets import Range


@dataclasses.dataclass
class KernelCost:
    """Static cost summary of one kernel."""

    label: str
    bytes_moved: int
    excess_bytes: int
    flops: int
    launches: int
    invocations: int
    order: str


def kernel_costs(sdfg) -> List[KernelCost]:
    """Per-kernel static costs, weighted by loop invocation counts."""
    invocations = sdfg.kernel_invocations()
    out = []
    for si, state in enumerate(sdfg.states):
        for node in state.nodes:
            if isinstance(node, Kernel):
                out.append(
                    KernelCost(
                        label=node.label,
                        bytes_moved=node.moved_bytes(sdfg),
                        excess_bytes=node.excess_access_bytes(sdfg),
                        flops=node.flops(),
                        launches=node.launch_count(),
                        invocations=invocations[si],
                        order=node.order,
                    )
                )
    return out


def total_bytes(sdfg) -> int:
    """Total modeled DRAM traffic of one program execution."""
    return sum(c.bytes_moved * c.invocations for c in kernel_costs(sdfg))


def total_flops(sdfg) -> int:
    return sum(c.flops * c.invocations for c in kernel_costs(sdfg))


def load_store_fraction(graphs) -> float:
    """Fraction of "instructions" that are loads/stores in ``graphs``
    (the SDFGs of one program or of a whole step).

    Modeled as element accesses vs. (element accesses + arithmetic ops),
    the analytic analogue of the paper's PAPI measurement.
    """
    accesses = 0
    flops = 0
    for cost in [c for sdfg in graphs for c in kernel_costs(sdfg)]:
        accesses += (cost.bytes_moved + cost.excess_bytes) * cost.invocations / 8.0
        flops += cost.flops * cost.invocations
    denom = accesses + flops
    return float(accesses / denom) if denom else 0.0


# ---------------------------------------------------------------------------
# lifetimes of toolchain-owned storage
# ---------------------------------------------------------------------------

def axes_of(sdfg, kernel: Kernel, name: str) -> str:
    if name in kernel.local_arrays or name not in sdfg.arrays:
        return "IJK"
    return sdfg.arrays[name].axes


def access_range(
    sdfg, kernel: Kernel, name: str, offset, ranges
) -> Optional[Range]:
    """Array-coordinate range one access touches (mirrors
    :meth:`Kernel.access_subsets`, per statement)."""
    if ranges is None:
        return None
    axes = axes_of(sdfg, kernel, name)
    origin = kernel.origin_of(name)
    dims = [
        (origin[d] + ranges[d][0] + offset[d],
         origin[d] + ranges[d][1] + offset[d])
        for d, axis in enumerate("IJK") if axis in axes
    ]
    return Range.of(*dims)


class KernelStatement:
    """One kernel statement with its flattened index and the compute-index
    ranges it executes over (``None``: never, on this rank/domain)."""

    __slots__ = ("idx", "stmt", "ranges", "_write_ranges", "paired")

    def __init__(self, idx: int, section, stmt: Assign, ext, kernel: Kernel):
        self.idx = idx
        self.stmt = stmt
        #: one half of an ``if``/``else`` that assigns this target in
        #: both branches (see :func:`_pair_branches`)
        self.paired = False
        self.ranges = kernel._stmt_ranges(stmt, ext, section.interval)
        self._write_ranges = self.ranges
        if self.ranges is not None and stmt.region is not None:
            # a predicated region statement sweeps the whole domain but
            # stores only inside its rectangle
            irange, jrange = region_ranges(
                stmt.region, kernel.domain, kernel.bounds, ext
            )
            self._write_ranges = (irange, jrange, self.ranges[2])

    @property
    def active(self) -> bool:
        return self.ranges is not None

    def written(self, sdfg, kernel: Kernel) -> Optional[Range]:
        """The range of the target this statement stores to."""
        return access_range(
            sdfg, kernel, self.stmt.target.name, (0, 0, 0),
            self._write_ranges,
        )


def kernel_statements(kernel: Kernel) -> List[KernelStatement]:
    out: List[KernelStatement] = []
    for section in kernel.sections:
        first = len(out)
        for stmt, ext in section.statements:
            out.append(KernelStatement(len(out), section, stmt, ext, kernel))
        _pair_branches(out[first:])
    return out


def _pair_branches(stmts: List[KernelStatement]) -> None:
    """Find the two halves of ``if c: t = a  else: t = b``.

    The frontend lowers the branches to two masked assignments with
    masks ``c`` and ``not c``. Each keeps the old value where its mask is
    false, but between them they store every point of their range, so
    the pair is one unmasked write — provided nothing in between can
    change ``c`` (a write to a field it reads) or observes the half-set
    target."""
    last_write: Dict[str, int] = {}
    for pos, s in enumerate(stmts):
        target = s.stmt.target.name
        prev = last_write.get(target)
        last_write[target] = pos
        if prev is None or s.stmt.mask is None or not s.active:
            continue
        first = stmts[prev]
        mask = first.stmt.mask
        if (
            mask is None
            or first.paired
            or s.stmt.mask != UnaryOp("not", mask)
            or s.stmt.region is not None
            or first.stmt.region is not None
            or first._write_ranges != s._write_ranges
        ):
            continue
        mask_inputs = {
            n.name for n in walk_expr(mask) if isinstance(n, FieldAccess)
        }
        if target in mask_inputs or any(
            mid.stmt.target.name in mask_inputs
            or any(a.name == target for a in expr_reads(mid.stmt))
            for mid in stmts[prev + 1:pos]
        ):
            continue
        first.paired = s.paired = True


@dataclasses.dataclass
class UncoveredRead:
    """A read of a transient or kernel-local array that the writes ahead
    of it in program order do not cover: on a pooled (arbitrary-content)
    buffer it would observe garbage.

    ``written`` is the bounding box of the writes that reach the read
    (``None``: nothing was written at all), ``missing`` the exact
    uncovered remainder. ``excuse`` names why the reader may still find
    the data initialized, which a static checker accepts and a code
    generator must not: ``"mask"`` — the read is a masked assignment
    keeping its target's old value where the mask is false (a DSL
    temporary starts at zero, so the first assignment under an ``if``
    is a write, not a use); ``"loop"`` — a write later in the same loop
    region covers it from the second iteration on; ``"callback"`` — a
    callback that may touch the container wrote an unknowable range (or
    is itself the reader, ``stmt is None``).
    """

    name: str
    local: bool
    node: Node
    stmt: Optional[Assign]
    offset: Tuple[int, int, int]
    required: Range
    written: Optional[Range]
    missing: List[Range]
    excuse: Optional[str] = None


def _remainder(required: Range, writes: Iterable[Range]) -> List[Range]:
    return _subtract([required] if required.volume() else [], writes)


def _subtract(rest: List[Range], writes: Iterable[Range]) -> List[Range]:
    """The parts of ``rest`` that no range of ``writes`` covers."""
    for written in writes:
        if not rest:
            break
        if written.ndim == rest[0].ndim:
            rest = [p for r in rest for p in r.difference(written)]
    return rest


def _bounding_box(ranges: List[Range]) -> Optional[Range]:
    box = None
    for rng in ranges:
        box = rng if box is None else box.union(rng)
    return box


def _same_loop(sdfg, si: int, sj: int) -> bool:
    """Are two state indices iterated together by some loop region?"""
    return any(
        lp.first <= si <= lp.last and lp.first <= sj <= lp.last
        for lp in sdfg.loops
        if lp.count > 1
    )


def _program_order(sdfg) -> List[Tuple[int, Node]]:
    return [
        (si, node)
        for si, state in enumerate(sdfg.states)
        for node in state.nodes
    ]


def _callback_contacts(sdfg, order) -> Dict[int, FrozenSet[str]]:
    """Position → transients the callback there may touch: the ones it
    declares in ``reads``/``writes`` (orchestration declares the
    containers it hands over), or all of them when it declares nothing
    and is a full barrier."""
    transients = frozenset(sdfg.transients())
    contacts = {}
    for pos, (_, node) in enumerate(order):
        if isinstance(node, Callback):
            if node.reads is None or node.writes is None:
                contacts[pos] = transients
            else:
                contacts[pos] = transients & (
                    set(node.reads) | set(node.writes)
                )
    return contacts


def uncovered_reads(sdfg) -> List[UncoveredRead]:
    """Every read of a transient or kernel-local array, in program order,
    that earlier writes do not cover (see :class:`UncoveredRead`).

    Coverage is exact rectangle subtraction over the per-statement write
    ranges. Inside a FORWARD/BACKWARD kernel a read at a vertical offset
    against the sweep direction is loop-carried, so every statement of
    the kernel counts as its producer. External (non-transient)
    containers are the caller's to initialize and zeroed transients the
    program's: neither is ever reported.
    """
    transients = {
        name for name in sdfg.transients() if not sdfg.arrays[name].zeroed
    }
    order = _program_order(sdfg)
    statements = {
        pos: kernel_statements(node)
        for pos, (_, node) in enumerate(order)
        if isinstance(node, Kernel)
    }
    contacts = _callback_contacts(sdfg, order)
    touched_by_callback = frozenset().union(*contacts.values())
    #: transient → (position, state index, range) of every kernel write
    writes: Dict[str, List[Tuple[int, int, Range]]] = {}
    for pos, stmts in statements.items():
        si, kernel = order[pos]
        for s in stmts:
            if s.active and s.stmt.target.name in transients:
                writes.setdefault(s.stmt.target.name, []).append(
                    (pos, si, s.written(sdfg, kernel))
                )

    out: List[UncoveredRead] = []
    for pos, (si, node) in enumerate(order):
        if pos in contacts:
            # a callback sees whole containers
            for name in sorted(contacts[pos] & transients):
                required = Range.from_shape(sdfg.arrays[name].shape)
                reaching = [r for p, _, r in writes.get(name, []) if p < pos]
                missing = _remainder(required, reaching)
                if missing:
                    out.append(UncoveredRead(
                        name, False, node, None, (0, 0, 0), required,
                        _bounding_box(reaching), missing, "callback",
                    ))
            continue
        if pos not in statements:
            continue
        stmts = statements[pos]
        own: Dict[str, List[Tuple[int, Range]]] = {}
        for s in stmts:
            if s.active:
                own.setdefault(s.stmt.target.name, []).append(
                    (s.idx, s.written(sdfg, node))
                )
        for s in stmts:
            if not s.active:
                continue
            for acc in expr_reads(s.stmt):
                name = acc.name
                local = name in node.local_arrays
                if not local and name not in transients:
                    continue
                # a masked assignment reads its own target to keep the
                # points its mask leaves out
                keeps_old = acc is s.stmt.target and s.stmt.mask is not None
                if keeps_old and s.paired:
                    continue  # the other branch stores those points
                required = access_range(sdfg, node, name, acc.offset, s.ranges)
                dk = acc.offset[2]
                carried = (node.order == "FORWARD" and dk < 0) or (
                    node.order == "BACKWARD" and dk > 0
                )
                reaching = [
                    rng for idx, rng in own.get(name, [])
                    if idx < s.idx or carried
                ]
                later_in_loop = []
                if not local:
                    for wpos, wsi, rng in writes.get(name, []):
                        if wpos < pos:
                            reaching.append(rng)
                        elif wpos != pos and _same_loop(sdfg, si, wsi):
                            later_in_loop.append(rng)
                missing = _remainder(required, reaching)
                if not missing:
                    continue
                excuse = None
                if keeps_old:
                    excuse = "mask"
                elif name in touched_by_callback:
                    excuse = "callback"
                elif not _remainder(required, reaching + later_in_loop):
                    excuse = "loop"
                out.append(UncoveredRead(
                    name, local, node, s.stmt, acc.offset, required,
                    _bounding_box(reaching), missing, excuse,
                ))
    return out


def transients_needing_zero(sdfg) -> List[str]:
    """Transients some reader may observe before the program wrote them,
    and the ones declared zeroed.

    Pooled buffers hold arbitrary data when taken, so the code generator
    zero-fills exactly these (before their first toucher, on every pass);
    every other transient is provably written before each read and is
    handed out as it comes."""
    needing = {r.name for r in uncovered_reads(sdfg) if not r.local}
    return [
        name for name in sdfg.transients()
        if name in needing or sdfg.arrays[name].zeroed
    ]


class Generation(NamedTuple):
    """One value of a transient (:func:`transient_lifetimes`): ``start``
    is the node it begins at — where the transient's name is bound to it
    — and ``first``/``last`` the positions between which it keeps its
    storage."""

    start: int
    first: int
    last: int


def transient_lifetimes(
    sdfg, needing_zero: Iterable[str]
) -> Dict[str, List[Generation]]:
    """Transient → its :class:`Generation` s in program order: the values
    it takes, each from the node that begins it to its last toucher
    before the next. Kernels touch what they read or write, callbacks
    what :func:`_callback_contacts` says they may. A transient nothing
    touches has no entry.

    A kernel that writes a transient begins a new generation when every
    later read of it is covered by the writes from that kernel on — the
    exact rectangle coverage of :func:`uncovered_reads`, no excuse
    accepted — so no read after it can see an older value. One forward
    pass finds them: each read pops the candidate kernels after the
    latest one whose writes, with the ones after it, still cover it.
    A transient with a read that needs its zero fill (``needing_zero``:
    :func:`transients_needing_zero`, which the code generator has at
    hand), or that a callback may touch, keeps one generation from its
    first toucher to its last;
    so does one whose storage a caller provides (the plan gives every
    generation the caller's array).

    No read is left to an older value, so inside a loop body a
    generation is the same on every iteration — as long as no value
    enters the body: a generation begins inside a loop only when the
    transient's first toucher in that loop begins one too. What a loop
    does require is that a value born outside it survives the back edge:
    a generation that reaches into a loop region without lying wholly
    inside it is widened to the whole region.
    """
    order = _program_order(sdfg)
    contacts = _callback_contacts(sdfg, order)
    transients = frozenset(sdfg.transients())
    splittable = transients.difference(needing_zero, *contacts.values())
    touches: Dict[str, List[int]] = {}
    #: transient → (position, ranges) of every kernel that wrote it
    writes: Dict[str, List[Tuple[int, List[Range]]]] = {}
    #: transient → writers that may still begin a generation, ascending
    starts: Dict[str, List[int]] = {}
    for pos, (_, node) in enumerate(order):
        if not isinstance(node, Kernel):
            for name in contacts.get(pos, ()):
                touches.setdefault(name, []).append(pos)
            continue
        stmts = [(s, expr_reads(s.stmt)) for s in kernel_statements(node)]
        for name in transients.intersection(
            [s.stmt.target.name for s, _ in stmts]
            + [acc.name for _, reads in stmts for acc in reads]
        ).difference(node.local_arrays):
            touches.setdefault(name, []).append(pos)
        own: Dict[str, List[Tuple[int, Range]]] = {}
        for s, _ in stmts:
            if s.active and s.stmt.target.name in splittable:
                own.setdefault(s.stmt.target.name, []).append(
                    (s.idx, s.written(sdfg, node))
                )
        for name in own:
            starts.setdefault(name, []).append(pos)
        # the first writer is never popped: every read is covered by the
        # writes ahead of it (else the transient needs its zero fill), and
        # none is older. A read met again later in the kernel has at least
        # the writes it had before ahead of it: it can pop nothing more
        seen = set()
        for s, reads in stmts:
            if not s.active:
                continue
            for acc in reads:
                stack = starts.get(acc.name, ())
                key = (acc.name, acc.offset, s.ranges)
                if len(stack) < 2 or key in seen \
                        or acc.name in node.local_arrays:
                    continue
                if acc is s.stmt.target and s.stmt.mask is not None \
                        and s.paired:
                    continue  # the other branch stores those points
                seen.add(key)
                dk = acc.offset[2]
                carried = (node.order == "FORWARD" and dk < 0) or (
                    node.order == "BACKWARD" and dk > 0
                )
                required = access_range(
                    sdfg, node, acc.name, acc.offset, s.ranges
                )
                rest = _remainder(required, [
                    rng for idx, rng in own.get(acc.name, ())
                    if idx < s.idx or carried
                ])
                # the latest writer whose writes, with the later ones,
                # cover the read: a generation begun after it misses some
                bound = pos
                for wpos, ranges in reversed(writes[acc.name]):
                    if not rest or wpos < stack[1]:
                        break
                    rest = _subtract(rest, ranges)
                    bound = wpos
                if rest:
                    bound = stack[0]
                while stack[-1] > bound:
                    stack.pop()
        for name, written in own.items():
            writes.setdefault(name, []).append(
                (pos, [rng for _, rng in written])
            )

    regions = []
    for lp in sdfg.loops:
        inside = [
            pos for pos, (si, _) in enumerate(order)
            if lp.first <= si <= lp.last
        ]
        if lp.count > 1 and inside:
            regions.append((inside[0], inside[-1]))
    out: Dict[str, List[Generation]] = {}
    for name, touched in touches.items():
        begins = [touched[0]] + [
            p for p in starts.get(name, ()) if p > touched[0]
        ]
        for a, b in regions:
            # a value that enters the loop body forbids a split inside it
            entry = next((p for p in touched if a <= p <= b), None)
            if entry is not None and entry not in begins:
                begins = [p for p in begins if not entry < p <= b]
        ends = begins[1:] + [len(order)]
        out[name] = [
            Generation(lo, *_widened(
                lo, max(p for p in touched if p < hi), regions
            ))
            for lo, hi in zip(begins, ends)
        ]
    return out


def _widened(lo: int, hi: int, regions) -> Tuple[int, int]:
    """``(lo, hi)`` grown to every loop region it reaches into without
    lying wholly inside it."""
    widened = True
    while widened:
        widened = False
        for a, b in regions:
            # the loop's tail, or its head, lies inside the lifetime
            if a < lo <= b < hi or lo < a <= hi < b:
                lo, hi, widened = min(lo, a), max(hi, b), True
    return lo, hi


def dead_transients(sdfg) -> List[Tuple[str, Kernel]]:
    """Transients a kernel writes that nothing can read — no kernel
    statement, no callback that may touch them — with the first writing
    kernel."""
    order = _program_order(sdfg)
    untouched = set(sdfg.transients()).difference(
        *_callback_contacts(sdfg, order).values()
    )
    first_writer: Dict[str, Kernel] = {}
    for _, node in order:
        if not isinstance(node, Kernel):
            continue
        for s in kernel_statements(node):
            if not s.active:
                continue
            first_writer.setdefault(s.stmt.target.name, node)
            untouched.difference_update(a.name for a in expr_reads(s.stmt))
    return [
        (name, first_writer[name])
        for name in sorted(untouched) if name in first_writer
    ]
