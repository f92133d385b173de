"""Index subsets for memlets: exact per-dimension half-open ranges.

SDFGs "inherently allow users to query data movement for exact ranges at
any point of the program" (Sec. III-B); this module provides the range
algebra those queries are built on.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class Range:
    """An N-dimensional rectangular subset: per-dim half-open [begin, end).

    Strides are always 1 in this reproduction (stencil accesses are dense).
    """

    dims: Tuple[Tuple[int, int], ...]

    @staticmethod
    def of(*dims: Tuple[int, int]) -> "Range":
        return Range(tuple((int(a), int(b)) for a, b in dims))

    @staticmethod
    def from_shape(shape: Sequence[int]) -> "Range":
        return Range(tuple((0, int(s)) for s in shape))

    def __post_init__(self):
        for begin, end in self.dims:
            if end < begin:
                raise ValueError(f"malformed range [{begin}, {end})")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def volume(self) -> int:
        """Number of elements covered."""
        vol = 1
        for begin, end in self.dims:
            vol *= end - begin
        return vol

    def union(self, other: "Range") -> "Range":
        """Bounding-box union (the exact union may not be rectangular)."""
        if self.ndim != other.ndim:
            raise ValueError("rank mismatch in range union")
        return Range(
            tuple(
                (min(a0, b0), max(a1, b1))
                for (a0, a1), (b0, b1) in zip(self.dims, other.dims)
            )
        )

    def intersection(self, other: "Range") -> "Range | None":
        if self.ndim != other.ndim:
            raise ValueError("rank mismatch in range intersection")
        dims = []
        for (a0, a1), (b0, b1) in zip(self.dims, other.dims):
            lo, hi = max(a0, b0), min(a1, b1)
            if lo >= hi:
                return None
            dims.append((lo, hi))
        return Range(tuple(dims))

    def difference(self, other: "Range") -> "List[Range]":
        """The part of this range that ``other`` leaves uncovered, as
        disjoint rectangles (exact, where :meth:`union` is a bounding
        box); empty when ``other`` covers it."""
        if self.volume() == 0:
            return []
        overlap = self.intersection(other)
        if overlap is None:
            return [self]
        pieces = []
        dims = list(self.dims)
        for axis, ((lo, hi), (olo, ohi)) in enumerate(
            zip(self.dims, overlap.dims)
        ):
            # slabs below and above the overlap along this axis; the
            # axes before it are already narrowed to the overlap
            for slab in ((lo, olo), (ohi, hi)):
                if slab[0] < slab[1]:
                    pieces.append(
                        Range(tuple(dims[:axis]) + (slab,)
                              + tuple(dims[axis + 1:]))
                    )
            dims[axis] = (olo, ohi)
        return pieces

    def covers(self, other: "Range") -> bool:
        if self.ndim != other.ndim:
            raise ValueError("rank mismatch in range covers")
        return all(
            a0 <= b0 and b1 <= a1
            for (a0, a1), (b0, b1) in zip(self.dims, other.dims)
        )

    def translated(self, offset: Sequence[int]) -> "Range":
        return Range(
            tuple((b + o, e + o) for (b, e), o in zip(self.dims, offset))
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{b}:{e}" for b, e in self.dims)
        return f"[{inner}]"
