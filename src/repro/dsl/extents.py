"""Extent (halo) inference for stencil definitions.

Buffer sizes and halo regions are "transparently defined by inferring halo
regions and extents from usage in stencils" (Sec. III-A). This module
implements that inference: a single reverse pass over the flattened
statement list propagates the horizontal extent over which each statement
must be computed, from consumers back to producers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.dsl.ir import Assign, FieldAccess, StencilDef, expr_reads


@dataclasses.dataclass(frozen=True)
class Extent:
    """A rectangular halo extent around the compute domain.

    ``i_lo``/``j_lo`` are ≤ 0 (cells before the domain start) and
    ``i_hi``/``j_hi`` are ≥ 0 (cells past the domain end). ``k_lo``/``k_hi``
    are tracked for temporary-field allocation only.
    """

    i_lo: int = 0
    i_hi: int = 0
    j_lo: int = 0
    j_hi: int = 0
    k_lo: int = 0
    k_hi: int = 0

    @staticmethod
    def zero() -> "Extent":
        return Extent()

    def union(self, other: "Extent") -> "Extent":
        return Extent(
            min(self.i_lo, other.i_lo),
            max(self.i_hi, other.i_hi),
            min(self.j_lo, other.j_lo),
            max(self.j_hi, other.j_hi),
            min(self.k_lo, other.k_lo),
            max(self.k_hi, other.k_hi),
        )

    def shifted(self, offset: Tuple[int, int, int]) -> "Extent":
        di, dj, dk = offset
        return Extent(
            self.i_lo + di,
            self.i_hi + di,
            self.j_lo + dj,
            self.j_hi + dj,
            self.k_lo + dk,
            self.k_hi + dk,
        )

    def normalized(self) -> "Extent":
        """Clamp so lows are ≤ 0 and highs are ≥ 0."""
        return Extent(
            min(self.i_lo, 0),
            max(self.i_hi, 0),
            min(self.j_lo, 0),
            max(self.j_hi, 0),
            min(self.k_lo, 0),
            max(self.k_hi, 0),
        )

    @property
    def halo_width(self) -> int:
        """The symmetric horizontal halo width needed to satisfy this extent."""
        return max(-self.i_lo, self.i_hi, -self.j_lo, self.j_hi, 0)


@dataclasses.dataclass
class StencilExtents:
    """Result of extent inference for one stencil definition."""

    #: Extent over which each flattened statement must be computed.
    stmt_extents: List[Extent]
    #: Per-field access extent: for parameters, the halo that must hold
    #: valid data on entry; for temporaries, the allocation extent.
    field_extents: Dict[str, Extent]

    def max_halo(self) -> int:
        return max(
            (e.halo_width for e in self.field_extents.values()), default=0
        )


def k_access_bounds(stencil: StencilDef, name: str, nk: int):
    """Exact [lo, hi) k-index range accessed on field ``name`` for a
    domain of ``nk`` levels, from per-interval offsets.

    Fields may have a different vertical size than the compute domain
    (e.g. interface fields with nk+1 levels read by layer-domain
    stencils); this per-interval analysis gives the true footprint.
    Returns ``None`` when the field is never accessed.
    """
    lo, hi = None, None
    for comp in stencil.computations:
        for block in comp.intervals:
            k0, k1 = block.interval.resolve(nk)
            k0, k1 = max(k0, 0), min(k1, nk)
            if k0 >= k1:
                continue
            for stmt in block.body:
                accesses = list(expr_reads(stmt))
                if stmt.target.name == name:
                    accesses.append(stmt.target)
                for acc in accesses:
                    if acc.name != name:
                        continue
                    dk = acc.offset[2]
                    a, b = k0 + dk, k1 + dk
                    lo = a if lo is None else min(lo, a)
                    hi = b if hi is None else max(hi, b)
    return None if lo is None else (lo, hi)


def _clamp_k_by_interval(required: Extent, interval) -> Extent:
    """Restrict a parameter's k-extent to accesses that can actually leave
    the [0, nk) domain given the statement's vertical interval.

    A read at offset -1 inside ``interval(1, None)`` touches levels
    [0, nk-1) only — no halo is needed. Intervals anchored at the opposite
    end are assumed not to escape the domain (nk is large enough).
    """
    k_lo = 0
    if interval.start.level == "start":
        k_lo = min(0, interval.start.offset + required.k_lo)
    k_hi = 0
    if interval.end.level == "end":
        k_hi = max(0, interval.end.offset + required.k_hi)
    return Extent(
        required.i_lo, required.i_hi, required.j_lo, required.j_hi, k_lo, k_hi
    )


def compute_extents(stencil: StencilDef) -> StencilExtents:
    """Infer per-statement compute extents and per-field access extents."""
    statements: List[Assign] = []
    stmt_intervals = []
    for comp in stencil.computations:
        for block in comp.intervals:
            for s in block.body:
                statements.append(s)
                stmt_intervals.append(block.interval)
    n = len(statements)
    stmt_extents = [Extent.zero() for _ in range(n)]
    field_extents: Dict[str, Extent] = {}

    # indices of statements writing each field, in program order
    writers: Dict[str, List[int]] = {}
    for idx, stmt in enumerate(statements):
        writers.setdefault(stmt.target.name, []).append(idx)

    for t in range(n - 1, -1, -1):
        stmt = statements[t]
        extent = stmt_extents[t]
        for access in expr_reads(stmt):
            required = extent.shifted(access.offset).normalized()
            # Producers only need enlarged *horizontal* compute domains;
            # vertical dependencies are realized by the sequential interval
            # iteration (FORWARD/BACKWARD loops), not by extents.
            horizontal_req = Extent(
                required.i_lo, required.i_hi, required.j_lo, required.j_hi
            )
            for w in writers.get(access.name, []):
                if w < t:
                    stmt_extents[w] = stmt_extents[w].union(horizontal_req)
            # record the raw access extent for halo computation; parameters
            # cannot be read outside [0, nk) when the interval bounds the
            # k-offset, so clamp their vertical requirement accordingly
            recorded = required
            if access.name not in stencil.temporaries:
                recorded = _clamp_k_by_interval(required, stmt_intervals[t])
            prev = field_extents.get(access.name, Extent.zero())
            field_extents[access.name] = prev.union(recorded)

    # temporaries must be allocated over the union of their write extents
    for name, idxs in writers.items():
        alloc = field_extents.get(name, Extent.zero())
        for w in idxs:
            alloc = alloc.union(stmt_extents[w])
        field_extents[name] = alloc

    # ensure every field parameter appears (outputs written but never read)
    for param in stencil.field_params:
        field_extents.setdefault(param.name, Extent.zero())
    return StencilExtents(stmt_extents=stmt_extents, field_extents=field_extents)
