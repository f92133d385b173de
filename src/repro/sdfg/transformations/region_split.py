"""Region scheduling: predicated full-domain maps vs. split sub-kernels.

Horizontal regions "can either be implemented as separate maps (i.e.,
multiple kernels) with an iteration over the respective sub-domain or as a
map over the full domain with code predicated on the index" (Sec. V-A).
Splitting was a significant win in the paper's first optimization cycle
(Table III: 5.35 s → 4.82 s): predicated edge-correction statements waste
nearly the whole domain's worth of memory traffic.
"""

from __future__ import annotations

from typing import List

from repro.sdfg.nodes import Kernel
from repro.sdfg.transformations.base import Transformation


class RegionSplit(Transformation):
    """Switch a kernel's region strategy from predication to splitting."""

    name = "region_split"

    def candidates(self, sdfg, state) -> List[int]:
        return [
            i
            for i, node in enumerate(state.nodes)
            if isinstance(node, Kernel)
            and node.has_regions()
            and node.schedule.regions_as_predication
        ]

    def can_apply(self, sdfg, state, candidate) -> bool:
        if candidate >= len(state.nodes):
            return False
        node = state.nodes[candidate]
        return (
            isinstance(node, Kernel)
            and node.has_regions()
            and node.schedule.regions_as_predication
        )

    def apply(self, sdfg, state, candidate) -> None:
        state.nodes[candidate].schedule.regions_as_predication = False

