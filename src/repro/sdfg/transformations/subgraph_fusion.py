"""Subgraph fusion (SGF): merge kernels with a common iteration space.

"Subgraph fusion ... can fuse arbitrary subgraphs into a single kernel by
extracting common iteration spaces" (Sec. VI-B). Two kernels with the same
iteration policy, domain and container origins are merged into one launch.
Thread-level legality (Sec. VI-A1) requires that the consumer not read the
producer's outputs at a nonzero horizontal offset — such dependencies need
an inter-thread barrier on a GPU and are handled by OTF fusion instead.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.dsl.ir import FieldAccess, expr_reads, map_expr
from repro.sdfg.nodes import Kernel, KernelSection
from repro.sdfg.transformations.base import (
    Transformation,
    can_become_adjacent,
    fresh_local_names,
)


def _concurrent_offset(order: str, offset) -> bool:
    """Is this access offset along an axis the fused map executes
    concurrently? I/J are always map dimensions; K joins them when the
    iteration policy is PARALLEL."""
    di, dj, dk = offset
    return (di, dj) != (0, 0) or (order == "PARALLEL" and dk != 0)


def _read_range(sdfg, kernel: Kernel, name: str, offset, ranges):
    """Array-coordinate range one read touches (as access_subsets does)."""
    axes = sdfg.arrays[name].axes
    origin = kernel.origin_of(name)
    irange, jrange, krange = ranges
    di, dj, dk = offset
    dims = []
    if "I" in axes:
        dims.append((origin[0] + irange[0] + di, origin[0] + irange[1] + di))
    if "J" in axes:
        dims.append((origin[1] + jrange[0] + dj, origin[1] + jrange[1] + dj))
    if "K" in axes:
        dims.append((origin[2] + krange[0] + dk, origin[2] + krange[1] + dk))
    from repro.sdfg.subsets import Range

    return Range.of(*dims)


def _offset_hazard(sdfg, writer: Kernel, reader: Kernel, order: str) -> bool:
    """Would one map scope hold a cross-thread dependency: the reader
    accessing, at a concurrent-axis offset, a range the writer writes?

    Accesses whose ranges are provably disjoint (``Range.intersection``
    returns None on empty overlap) are no dependency at all and do not
    block fusion.
    """
    written = set(writer.written_fields())
    if not written:
        return False
    _, write_subsets = writer.access_subsets(lambda n: sdfg.arrays[n].axes)
    for section in reader.sections:
        for stmt, ext in section.statements:
            ranges = reader._stmt_ranges(stmt, ext, section.interval)
            if ranges is None:
                continue
            for acc in expr_reads(stmt):
                if acc.name not in written:
                    continue
                if not _concurrent_offset(order, acc.offset):
                    continue
                write_rng = write_subsets.get(acc.name)
                if write_rng is None:
                    return True  # writes with unknowable ranges: assume hit
                read_rng = _read_range(sdfg, reader, acc.name, acc.offset, ranges)
                if read_rng.ndim != write_rng.ndim:
                    return True
                if read_rng.intersection(write_rng) is not None:
                    return True
    return False


class SubgraphFusion(Transformation):
    name = "subgraph_fusion"

    def candidates(self, sdfg, state) -> List[Tuple[int, int]]:
        kernels = [
            (i, n) for i, n in enumerate(state.nodes) if isinstance(n, Kernel)
        ]
        out = []
        for x in range(len(kernels)):
            for y in range(x + 1, len(kernels)):
                i, a = kernels[x]
                j, b = kernels[y]
                if self._compatible(a, b):
                    out.append((i, j))
        return out

    def _compatible(self, a: Kernel, b: Kernel) -> bool:
        if a.order != b.order:
            return False
        if a.domain != b.domain or a.origin != b.origin:
            return False
        if a.bounds.origin != b.bounds.origin or (
            a.bounds.tile_shape != b.bounds.tile_shape
        ):
            return False
        if a.schedule.device != b.schedule.device:
            return False
        # shared containers must agree on origins
        for name, org in b.origins.items():
            if name in a.origins and a.origins[name] != org:
                return False
        return True

    def can_apply(self, sdfg, state, candidate) -> bool:
        i, j = candidate
        if i >= len(state.nodes) or j >= len(state.nodes):
            return False
        a, b = state.nodes[i], state.nodes[j]
        if not (isinstance(a, Kernel) and isinstance(b, Kernel)):
            return False
        if not self._compatible(a, b):
            return False
        if not can_become_adjacent(state, i, j):
            return False
        # the consumer reading producer output at a concurrent-axis offset
        # (RAW), or the producer reading a range the consumer overwrites
        # (WAR), would need an inter-thread barrier inside one map scope
        return not _offset_hazard(sdfg, a, b, a.order) and not _offset_hazard(
            sdfg, b, a, a.order
        )

    def apply(self, sdfg, state, candidate) -> None:
        i, j = candidate
        a: Kernel = state.nodes[i]
        b: Kernel = state.nodes[j]
        rename = fresh_local_names(a, b)
        if rename:
            _rename_kernel_fields(b, rename)
            b.local_arrays = {rename.get(n, n): e for n, e in b.local_arrays.items()}
        a.sections = a.sections + [
            KernelSection(s.interval, list(s.statements)) for s in b.sections
        ]
        a.local_arrays.update(b.local_arrays)
        for name, org in b.origins.items():
            a.origins.setdefault(name, org)
        a.constituents = a.constituents + b.constituents
        a.label = f"{a.label}+{b.label}"
        del state.nodes[j]


def _rename_kernel_fields(kernel: Kernel, rename) -> None:
    def repl(node):
        if isinstance(node, FieldAccess) and node.name in rename:
            return FieldAccess(rename[node.name], node.offset)
        return node

    for section in kernel.sections:
        section.statements = [
            (
                dataclasses.replace(
                    s,
                    target=FieldAccess(
                        rename.get(s.target.name, s.target.name), s.target.offset
                    ),
                    value=map_expr(s.value, repl),
                    mask=map_expr(s.mask, repl) if s.mask is not None else None,
                ),
                ext,
            )
            for s, ext in section.statements
        ]
