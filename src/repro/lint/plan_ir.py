"""Whole-program communication-plan IR for the C3xx lint rules.

The split halo API (``start_* → advance → finish_*``) trades the safety
of an atomic exchange for latency hiding: between ``start`` and
``finish`` the exchanged fields' halos are in flight, tag slots must stay
disjoint across concurrent exchanges, and every rank must run a
compatible schedule or the whole model deadlocks. PR 5 fixed exactly one
such bug (a cross-thread repack race on shared tag slots) by hand; this
module gives the lint layer a static description of the schedule so
:mod:`repro.lint.comm_rules` can prove those properties before a single
message is posted.

A :class:`CommPlan` is

- the *message topology*: per-(rank, phase) send/recv edges, extracted
  from :meth:`repro.fv3.halo.HaloUpdater.comm_schedule` (or synthesized
  with :func:`ring_edges` in tests);
- per-rank *programs*: linear sequences of :class:`StartOp` /
  :class:`AdvanceOp` / :class:`FinishOp` / :class:`ExchangeOp` /
  :class:`ComputeOp`, mirroring what each rank thread executes;
- the *exchange declarations*: which logical fields each split exchange
  carries and on which ``fslot_base`` tag slot (one per exchange: a
  message carries every field of its exchange).

Compute ops carry per-field read/write :class:`~repro.dsl.extents.Extent`
footprints (relative to the interior compute domain, so
``halo_width > 0`` means the op touches halo cells), derived from real
stencil extents via :func:`compute_op_from_stencils` or re-derived from a
transformed SDFG via :func:`compute_op_from_sdfg` for the per-stage
transformation audit.

This module deliberately imports nothing from :mod:`repro.fv3` — the
halo layer hands over its schedule as plain tuples, so the lint layer
stays importable without the model.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.dsl.extents import Extent
from repro.dsl.ir import expr_reads
from repro.util.loc import SourceLocation

__all__ = [
    "AdvanceOp",
    "CommPlan",
    "ComputeOp",
    "ExchangeDecl",
    "ExchangeOp",
    "FinishOp",
    "MessageEdge",
    "StartOp",
    "compute_op_from_sdfg",
    "compute_op_from_stencils",
    "halo_extent",
    "ring_edges",
]


def _capture_location() -> SourceLocation:
    """file:line of the nearest caller outside this module.

    Plan ops default to the line they were *constructed* on, so a
    ``# lint: ignore[...]`` comment on the declaring line in e.g.
    ``acoustics.py`` suppresses findings anchored to that op.
    """
    frame = sys._getframe(1)
    skip = (__file__, dataclasses.__file__)
    while frame is not None:
        filename = frame.f_code.co_filename
        # dataclass-generated __init__ bodies compile from "<string>";
        # skip those and this module so the op anchors where the user
        # wrote it.
        if filename not in skip and not filename.startswith("<"):
            break
        frame = frame.f_back
    if frame is None:
        return SourceLocation()
    return SourceLocation(frame.f_code.co_filename, frame.f_lineno)


def halo_extent(width: int) -> Extent:
    """The full symmetric horizontal halo footprint of ``width`` cells."""
    return Extent(-width, width, -width, width)


@dataclasses.dataclass(frozen=True)
class MessageEdge:
    """One point-to-point message of one exchange phase."""

    src: int
    dst: int
    phase: int
    plan_index: int = 0
    cells: int = 0


@dataclasses.dataclass(frozen=True)
class ExchangeDecl:
    """A split exchange: which fields travel, on which tag slot."""

    name: str
    fields: Tuple[str, ...]
    fslot_base: int = 0
    vector: bool = False

    @property
    def fslots(self) -> Tuple[int, ...]:
        """Tag slots this exchange occupies: its one slot, since each
        message carries all of its fields."""
        return (self.fslot_base,)


@dataclasses.dataclass(frozen=True)
class StartOp:
    """Post phase 0 of an exchange (sends packed, receives posted)."""

    exchange: str
    location: SourceLocation = dataclasses.field(
        default_factory=_capture_location
    )


@dataclasses.dataclass(frozen=True)
class AdvanceOp:
    """Complete phase 0 and post phase 1 without blocking on it."""

    exchange: str
    location: SourceLocation = dataclasses.field(
        default_factory=_capture_location
    )


@dataclasses.dataclass(frozen=True)
class FinishOp:
    """Block until every remaining phase of an exchange completes."""

    exchange: str
    location: SourceLocation = dataclasses.field(
        default_factory=_capture_location
    )


@dataclasses.dataclass(frozen=True)
class ExchangeOp:
    """A whole exchange with no compute of the rank's own inside it: its
    start, advance and finish back to back (a lockstep body yields
    between them). Checked as those three ops, with no window to hide
    latency in — the form for an exchange whose every reader needs the
    halos it fills."""

    exchange: str
    location: SourceLocation = dataclasses.field(
        default_factory=_capture_location
    )

    def expand(self) -> Tuple["StartOp", "AdvanceOp", "FinishOp"]:
        return (
            StartOp(self.exchange, self.location),
            AdvanceOp(self.exchange, self.location),
            FinishOp(self.exchange, self.location),
        )


@dataclasses.dataclass(frozen=True)
class ComputeOp:
    """A compute region between communication ops.

    ``reads``/``writes`` map logical field names to horizontal access
    footprints relative to the interior compute domain: an extent with
    ``halo_width > 0`` touches halo cells.
    """

    name: str
    reads: Mapping[str, Extent] = dataclasses.field(default_factory=dict)
    writes: Mapping[str, Extent] = dataclasses.field(default_factory=dict)
    location: SourceLocation = dataclasses.field(
        default_factory=_capture_location
    )

    def __post_init__(self):
        object.__setattr__(self, "reads", dict(self.reads))
        object.__setattr__(self, "writes", dict(self.writes))


CommOp = object  # StartOp | AdvanceOp | FinishOp | ExchangeOp | ComputeOp


@dataclasses.dataclass(frozen=True)
class CommPlan:
    """A whole-program communication schedule across all ranks."""

    name: str
    n_ranks: int
    exchanges: Tuple[ExchangeDecl, ...]
    #: programs[rank] — the linear op sequence that rank executes
    programs: Tuple[Tuple[CommOp, ...], ...]
    edges: Tuple[MessageEdge, ...]
    location: SourceLocation = dataclasses.field(
        default_factory=_capture_location
    )

    def __post_init__(self):
        if len(self.programs) != self.n_ranks:
            raise ValueError(
                f"plan {self.name!r} declares {self.n_ranks} ranks but "
                f"{len(self.programs)} programs"
            )
        names = [x.name for x in self.exchanges]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate exchange names in {self.name!r}")

    @classmethod
    def spmd(
        cls,
        name: str,
        n_ranks: int,
        exchanges: Sequence[ExchangeDecl],
        program: Sequence[CommOp],
        edges: Iterable[Tuple[int, int, int] | Tuple[int, int, int, int, int] | MessageEdge],
        location: Optional[SourceLocation] = None,
    ) -> "CommPlan":
        """Every rank runs the same program (the usual SPMD shape)."""
        prog = tuple(program)
        return cls(
            name=name,
            n_ranks=n_ranks,
            exchanges=tuple(exchanges),
            programs=tuple(prog for _ in range(n_ranks)),
            edges=edges_from_schedule(edges),
            location=location or _capture_location(),
        )

    def exchange(self, name: str) -> ExchangeDecl:
        for x in self.exchanges:
            if x.name == name:
                return x
        raise KeyError(f"no exchange {name!r} in plan {self.name!r}")

    def sources_of(self, rank: int, phase: int) -> Tuple[int, ...]:
        """Peer ranks whose sends ``rank`` waits for in ``phase``
        (self-messages never block: they are posted before the wait)."""
        return tuple(
            sorted(
                {
                    e.src
                    for e in self.edges
                    if e.dst == rank and e.phase == phase and e.src != rank
                }
            )
        )

    def with_compute(self, name: str, op: ComputeOp) -> "CommPlan":
        """Replace every ComputeOp called ``name`` with ``op``.

        The original op's source location is preserved so suppressions
        and audit stage-diff keys stay anchored to the declaration site.
        """
        replaced = 0
        programs = []
        for program in self.programs:
            out = []
            for o in program:
                if isinstance(o, ComputeOp) and o.name == name:
                    out.append(
                        dataclasses.replace(op, location=o.location)
                    )
                    replaced += 1
                else:
                    out.append(o)
            programs.append(tuple(out))
        if not replaced:
            raise KeyError(
                f"no compute op {name!r} in plan {self.name!r}"
            )
        return dataclasses.replace(self, programs=tuple(programs))


def edges_from_schedule(schedule) -> Tuple[MessageEdge, ...]:
    """Normalize a schedule into :class:`MessageEdge` tuples.

    Accepts MessageEdge instances, ``(src, dst, phase)`` triples or the
    ``(src, dst, phase, plan_index, cells)`` tuples of
    :meth:`HaloUpdater.comm_schedule`.
    """
    out = []
    for e in schedule:
        if isinstance(e, MessageEdge):
            out.append(e)
        else:
            out.append(MessageEdge(*e))
    return tuple(out)


def ring_edges(n_ranks: int, phases: Tuple[int, ...] = (0, 1),
               cells: int = 1) -> Tuple[MessageEdge, ...]:
    """Synthetic bidirectional-ring topology for tests: every rank
    exchanges with both neighbors in every phase."""
    edges = []
    for phase in phases:
        for dst in range(n_ranks):
            for pi, src in enumerate(
                sorted({(dst - 1) % n_ranks, (dst + 1) % n_ranks})
            ):
                if src == dst:
                    continue
                edges.append(MessageEdge(src, dst, phase, pi, cells))
    return tuple(edges)


# ---------------------------------------------------------------------------
# Deriving compute footprints from real stencils / SDFGs
# ---------------------------------------------------------------------------


def _stencil_footprints(stencil) -> Tuple[Dict[str, Extent], Dict[str, Extent]]:
    """(reads, writes) per *parameter* of one stencil definition.

    Reads use the inferred per-field access extents (the halo that must
    hold valid data on entry); writes use the union of the compute
    extents of the statements writing each parameter.
    """
    defn = getattr(stencil, "definition", stencil)
    extents = getattr(stencil, "extents", None)
    if extents is None:
        from repro.dsl.extents import compute_extents

        extents = compute_extents(defn)
    params = {p.name for p in defn.field_params}
    read_names = set()
    writes: Dict[str, Extent] = {}
    idx = 0
    for comp in defn.computations:
        for block in comp.intervals:
            for stmt in block.body:
                ext = extents.stmt_extents[idx]
                idx += 1
                name = stmt.target.name
                if name in params:
                    prev = writes.get(name, Extent.zero())
                    writes[name] = prev.union(ext.normalized())
                for acc in expr_reads(stmt):
                    if acc.name in params:
                        read_names.add(acc.name)
    reads = {
        name: extents.field_extents.get(name, Extent.zero()).normalized()
        for name in read_names
    }
    return reads, writes


def compute_op_from_stencils(
    name: str,
    calls: Sequence[tuple],
    *,
    location: Optional[SourceLocation] = None,
) -> ComputeOp:
    """Build a :class:`ComputeOp` from real stencil objects.

    ``calls`` is a sequence of ``(stencil, mapping)`` or
    ``(stencil, mapping, halo)`` tuples: ``mapping`` renames stencil
    parameters to the plan's logical field names (unmapped parameters are
    private work arrays and are dropped); a nonzero ``halo`` marks a call
    executed over the halo-extended domain (e.g. ``c_sw``), inflating
    every mapped footprint to the full halo width.
    """
    reads: Dict[str, Extent] = {}
    writes: Dict[str, Extent] = {}
    for call in calls:
        stencil, mapping = call[0], call[1]
        halo = call[2] if len(call) > 2 else 0
        s_reads, s_writes = _stencil_footprints(stencil)
        for target, source in ((reads, s_reads), (writes, s_writes)):
            for pname, ext in source.items():
                logical = mapping.get(pname)
                if logical is None:
                    continue
                if halo:
                    ext = ext.union(halo_extent(halo))
                prev = target.get(logical, Extent.zero())
                target[logical] = prev.union(ext)
    return ComputeOp(
        name=name,
        reads=reads,
        writes=writes,
        location=location or _capture_location(),
    )


def compute_op_from_sdfg(
    name: str,
    graphs,
    rename: Optional[Mapping[str, str]] = None,
    *,
    location: Optional[SourceLocation] = None,
) -> ComputeOp:
    """Re-derive a compute footprint from (optimized) SDFGs: the union
    over the kernels of every graph in ``graphs``.

    Used by the transformation audit: after each pipeline stage the
    named ComputeOp of the plan is rebuilt from the *current* kernels, so
    a transformation that enlarges a read extent into the halo of an
    in-flight field surfaces as a new C304 finding charged to that stage.
    """
    rename = dict(rename or {})
    reads: Dict[str, Extent] = {}
    writes: Dict[str, Extent] = {}

    def _logical(container: str) -> str:
        return rename.get(container, container)

    for kernel in [k for sdfg in graphs for k in sdfg.all_kernels()]:
        local = kernel.local_arrays
        for stmt, ext in kernel.statements():
            tname = stmt.target.name
            if tname not in local:
                key = _logical(tname)
                prev = writes.get(key, Extent.zero())
                writes[key] = prev.union(ext.normalized())
            for acc in expr_reads(stmt):
                if acc.name in local:
                    continue
                key = _logical(acc.name)
                prev = reads.get(key, Extent.zero())
                reads[key] = prev.union(
                    ext.shifted(acc.offset).normalized()
                )
    return ComputeOp(
        name=name,
        reads=reads,
        writes=writes,
        location=location or _capture_location(),
    )
