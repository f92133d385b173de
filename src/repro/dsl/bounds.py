"""Where a stencil's compute domain sits in its tile, and where a
horizontal region falls in a statement's range.

Horizontal regions (Sec. IV-B) are anchored at *tile* edges, so every
lowering that restricts a statement to a region — the SDFG expansion,
the analyses over it and the definition interpreter — resolves the
anchors here.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:
    from repro.dsl.builtins import RegionSpec
    from repro.dsl.extents import Extent


@dataclasses.dataclass
class GridBounds:
    """Local-to-global placement of the compute domain within its tile.

    In distributed runs each rank passes its subdomain's global origin
    and the tile shape so anchors resolve correctly (Sec. IV-B: "the DSL
    needs to resolve which other ranks to synchronize with based on the
    ranges").
    """

    origin: Tuple[int, int] = (0, 0)
    tile_shape: Optional[Tuple[int, int]] = None

    def resolve(self, domain: Tuple[int, int, int]) -> "GridBounds":
        if self.tile_shape is None:
            return GridBounds(self.origin, (domain[0], domain[1]))
        return self


def _anchor_global(anchor, tile_shape: Tuple[int, int]) -> int:
    """Global tile index denoted by an AxisAnchor (i_end = last point)."""
    size = tile_shape[0] if anchor.axis == "i" else tile_shape[1]
    return 0 if anchor.side == "start" else size - 1


def region_ranges(
    region: "RegionSpec",
    domain: Tuple[int, int, int],
    bounds: GridBounds,
    ext: "Extent",
) -> Optional[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """Intersect a region with a statement's extended local range.

    Returns per-axis half-open local compute-index ranges, or ``None``
    when the intersection is empty on this rank.
    """
    bounds = bounds.resolve(domain)
    gi, gj = bounds.origin
    tile = bounds.tile_shape
    out = []
    for axis, (g0, n, lo, hi) in enumerate(
        (
            (gi, domain[0], ext.i_lo, ext.i_hi),
            (gj, domain[1], ext.j_lo, ext.j_hi),
        )
    ):
        spec = region.i if axis == 0 else region.j
        glo, ghi = g0 + lo, g0 + n + hi  # statement range in global indices
        if not spec.is_full:
            if spec.single:
                point = _anchor_global(spec.start, tile)
                glo, ghi = max(glo, point), min(ghi, point + 1)
            else:
                if spec.start is not None:
                    glo = max(glo, _anchor_global(spec.start, tile))
                if spec.stop is not None:
                    ghi = min(ghi, _anchor_global(spec.stop, tile))
        if glo >= ghi:
            return None
        out.append((glo - g0, ghi - g0))
    return tuple(out)
