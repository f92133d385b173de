"""Memlets: explicit data-movement edges between graph nodes."""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.sdfg.subsets import Range


@dataclasses.dataclass(frozen=True)
class Memlet:
    """Data movement of an exact subset of one container.

    Attributes:
        data: container name in the parent SDFG.
        subset: element range moved (``None`` means the full container).
        is_write: True on edges into an access node.
    """

    data: str
    subset: Optional[Range] = None
    is_write: bool = False

