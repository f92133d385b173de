"""Data-movement, instruction-mix and lifetime analysis over SDFGs.

The cost queries power the model-driven performance engineering
discipline (Sec. VI): exact per-kernel byte counts, arithmetic
intensities, and the program-wide load/store fraction the paper measures
with PAPI (Sec. VIII: 40.15% of executed instructions were load/store
operations).

The lifetime query (:func:`coverage`) answers, with the exact
:class:`~repro.sdfg.subsets.Range` of every statement, whether storage
the toolchain owns — SDFG transients and kernel-local arrays — is
written before it is read. Its one walk is the one implementation behind
the code generator's zero fills of transients and kernel locals (pooled
buffers hold arbitrary data) and the ``repro.lint`` S202/S204/S205
rules, and it says which values a transient takes — a new one wherever a
write covers every later read — and between which nodes each has to keep
its storage, which is what the code generator's memory planner lays a
program's slab out from.
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
    """One kernel statement with its flattened index, the index of its
    section in the order the kernel lists (and runs) them, and the
    compute-index ranges it executes over (``None``: never, on this
    rank/domain)."""

    __slots__ = ("idx", "sec", "stmt", "ranges", "_write_ranges", "paired")

    def __init__(
        self, idx: int, sec: int, section, stmt: Assign, ext, kernel: Kernel
    ):
        self.idx = idx
        self.sec = sec
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
    for sec, section in enumerate(kernel.sections):
        first = len(out)
        for stmt, ext in section.statements:
            out.append(
                KernelStatement(len(out), sec, section, stmt, ext, kernel)
            )
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


class Generation(NamedTuple):
    """One value of a transient (:attr:`Coverage.lifetimes`): ``start``
    is the node it begins at — where the transient's name is bound to it
    — and ``first``/``last`` the positions between which it keeps its
    storage."""

    start: int
    first: int
    last: int


@dataclasses.dataclass
class Coverage:
    """What :func:`coverage` answers about the storage the toolchain owns.

    ``uncovered_reads``: every read of a transient or kernel-local array,
    in program order, that the writes ahead of it do not cover (see
    :class:`UncoveredRead`). ``transients_needing_zero``: the transients
    such a read may observe unwritten, and the ones declared zeroed;
    ``locals_needing_zero``: every ``(kernel, local)`` with such a read.
    Pooled buffers hold arbitrary data when taken, so the code generator
    zero-fills exactly these — a transient before its first toucher, on
    every pass, a local where its kernel binds it — and hands out every
    other one as it comes. ``lifetimes``: transient → its
    :class:`Generation` s in program order, each from the node that
    begins it to its last toucher before the next (a transient nothing
    touches has no entry). ``dead_transients``: transients a kernel
    writes that nothing can read — no kernel statement, no callback that
    may touch them — with the first writing kernel.
    """

    uncovered_reads: List[UncoveredRead]
    transients_needing_zero: List[str]
    locals_needing_zero: FrozenSet[Tuple[Kernel, str]]
    lifetimes: Dict[str, List[Generation]]
    dead_transients: List[Tuple[str, Kernel]]


#: the direction of a sequential kernel's vertical sweep
_SWEEP = {"FORWARD": 1, "BACKWARD": -1}


def coverage(sdfg) -> Coverage:
    """One forward walk over program order that asks of every read of a
    transient or kernel-local array whether the writes ahead of it cover
    it; every field of :class:`Coverage` comes from its answers.

    Coverage is exact rectangle subtraction over the per-statement write
    ranges. A read first subtracts its own kernel's writes ahead of it,
    and a transient's read then the earlier kernels' writes, from the
    latest back, until it is covered. A FORWARD/BACKWARD kernel runs its
    sections in the order it lists them, each as its own vertical sweep,
    so the writes ahead of a read depend on its vertical offset: at the
    same level, the statements before it; at a level its sweep has
    passed (loop-carried), every statement of its section and the
    earlier ones; at a level its sweep has not reached, the earlier
    sections only. A callback that may touch a transient
    (:func:`_callback_contacts`) reads all of it.
    External (non-transient) containers are the caller's to initialize
    and zeroed transients the program's: neither is ever reported.

    Where a covered read's walk stops splits a transient into
    generations: a kernel that writes it begins a new one when every
    later read is covered by the writes from that kernel on — exact
    coverage, no excuse accepted — so no read after it can see an older
    value. Each read pops the candidate writers after the latest one its
    walk needed. A transient with a read that needs its zero fill, or
    that a callback may touch, keeps one generation from its first
    toucher to its last; so does one whose storage a caller provides
    (the plan gives every generation the caller's array).

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
    touched_by_callback = frozenset().union(*contacts.values())
    transients = frozenset(sdfg.transients())
    unzeroed = frozenset(
        name for name in transients if not sdfg.arrays[name].zeroed
    )
    splittable = unzeroed - touched_by_callback
    touches: Dict[str, List[int]] = {}
    #: transient → (position, ranges) of every kernel that wrote it
    writes: Dict[str, List[Tuple[int, List[Range]]]] = {}
    #: transient → writers that may still begin a generation, ascending
    starts: Dict[str, List[int]] = {}
    #: (position, statement, access, name, required, own writes ahead)
    #: of every read the walk leaves uncovered
    uncovered: List[tuple] = []
    read = set()
    first_writer: Dict[str, Kernel] = {}
    for pos, (_, node) in enumerate(order):
        if not isinstance(node, Kernel):
            for name in sorted(contacts.get(pos, ())):
                touches.setdefault(name, []).append(pos)
                whole = Range(tuple((0, n) for n in sdfg.arrays[name].shape))
                if name in unzeroed and _walk_back(
                    _remainder(whole, []), writes.get(name, ())
                )[0]:
                    uncovered.append((pos, None, None, name, whole, []))
            continue
        local_arrays = node.local_arrays
        stmts = [(s, expr_reads(s.stmt)) for s in kernel_statements(node)]
        for name in transients.intersection(
            [s.stmt.target.name for s, _ in stmts]
            + [acc.name for _, reads in stmts for acc in reads]
        ).difference(local_arrays):
            touches.setdefault(name, []).append(pos)
        own: Dict[str, List[Tuple[int, int, Range]]] = {}
        sweep = _SWEEP.get(node.order, 0)
        for s, reads in stmts:
            if s.active:
                target = s.stmt.target.name
                read.update(acc.name for acc in reads)
                if target in transients:
                    first_writer.setdefault(target, node)
                if target in unzeroed or target in local_arrays:
                    own.setdefault(target, []).append(
                        (s.idx, s.sec, s.written(sdfg, node))
                    )
        for name in splittable.intersection(own):
            starts.setdefault(name, []).append(pos)
        # a covered read met again later in the kernel (same offset, so
        # the same rule of what is ahead) has at least the writes it had
        # before ahead of it: covered, it can pop no more
        covered = set()
        for s, reads in stmts:
            if not s.active:
                continue
            for acc in reads:
                name = acc.name
                local = name in local_arrays
                key = (name, acc.offset, s.ranges)
                if key in covered or not local and name not in unzeroed:
                    continue
                if acc is s.stmt.target and s.stmt.mask is not None \
                        and s.paired:
                    continue  # the other branch stores those points
                # > 0: a level the sweep has not reached; < 0: one it passed
                dk = acc.offset[2] * sweep
                required = access_range(sdfg, node, name, acc.offset, s.ranges)
                ahead = [
                    rng for idx, sec, rng in own.get(name, ())
                    if (sec < s.sec if dk > 0 else sec <= s.sec if dk < 0
                        else idx < s.idx)
                ]
                rest, bound = _remainder(required, ahead), pos
                if rest and not local:
                    rest, bound = _walk_back(rest, writes.get(name, ()))
                if rest:
                    uncovered.append((pos, s, acc, name, required, ahead))
                    continue
                covered.add(key)
                # the latest writer whose writes, with the later ones,
                # cover the read: a generation begun after it misses some
                stack = () if local else starts.get(name, ())
                while stack and stack[-1] > bound:
                    stack.pop()
        for name, written in own.items():
            if name in unzeroed:
                writes.setdefault(name, []).append(
                    (pos, [rng for _, _, rng in written])
                )

    records = [
        _uncovered_read(sdfg, order, writes, touched_by_callback, *entry)
        for entry in uncovered
    ]
    needing = {r.name for r in records if not r.local}
    return Coverage(
        records,
        [name for name in sdfg.transients()
         if name in needing or sdfg.arrays[name].zeroed],
        frozenset((r.node, r.name) for r in records if r.local),
        _generations(sdfg, order, touches, {
            name: stack for name, stack in starts.items()
            if name not in needing
        }),
        [(name, first_writer[name])
         for name in sorted(transients - touched_by_callback - read)
         if name in first_writer],
    )


def _walk_back(rest: List[Range], writes) -> Tuple[List[Range], int]:
    """Subtract the ``(position, ranges)`` of ``writes`` from ``rest``,
    the latest first, until nothing is left: what is left, and the
    position of the last writer subtracted."""
    bound = -1
    for bound, ranges in reversed(writes):
        rest = _subtract(rest, ranges)
        if not rest:
            break
    return rest, bound


def _uncovered_read(
    sdfg, order, writes, touched_by_callback, pos, s, acc, name, required,
    ahead,
) -> UncoveredRead:
    """The record of a read the walk left uncovered: what reached it (in
    program order), what it misses and its excuse."""
    si, node = order[pos]
    local = s is not None and name in node.local_arrays
    later_in_loop = []
    # no other kernel writes a kernel's local
    for wpos, ranges in () if local else writes.get(name, ()):
        if wpos < pos:
            ahead = ahead + ranges
        elif wpos != pos and any(
            # a loop region iterates the two states together
            lp.count > 1 and lp.first <= min(si, order[wpos][0])
            and max(si, order[wpos][0]) <= lp.last
            for lp in sdfg.loops
        ):
            later_in_loop += ranges
    missing = _remainder(required, ahead)
    if s is None:  # a callback sees whole containers
        return UncoveredRead(
            name, False, node, None, (0, 0, 0), required,
            _bounding_box(ahead), missing, "callback",
        )
    excuse = None
    if acc is s.stmt.target and s.stmt.mask is not None:
        excuse = "mask"
    elif name in touched_by_callback:
        excuse = "callback"
    elif not _remainder(required, ahead + later_in_loop):
        excuse = "loop"
    return UncoveredRead(
        name, local, node, s.stmt, acc.offset, required,
        _bounding_box(ahead), missing, excuse,
    )


def _generations(sdfg, order, touches, starts) -> Dict[str, List[Generation]]:
    """Transient → its generations: one beginning at its first toucher
    and one at each writer left in ``starts`` after it, except inside a
    loop a value enters; each keeps its storage to its last toucher
    before the next, widened to every loop region it reaches into."""
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
