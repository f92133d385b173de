"""Field storage allocation: layout, padding and alignment (paper Fig. 8).

The paper parameterizes allocation by data layout (FORTRAN / I-contiguous
by default, "since it generates wide loads on the largest dimension"),
padding of strides, and *pre-padding* so the first non-halo element is
aligned — yielding coalesced access on GPUs (~5% gain on the tested
stencil). This module reproduces those knobs on top of NumPy buffers.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.dsl.types import DEFAULT_DTYPE


@dataclasses.dataclass(frozen=True)
class StorageSpec:
    """Allocation policy for model fields.

    Attributes:
        layout: ``"F"`` for I-contiguous (FORTRAN, the paper's choice) or
            ``"C"`` for K-contiguous.
        alignment_bytes: alignment (in bytes) of the first *compute-domain*
            element; 1 disables pre-padding.
        stride_padding: extra elements added to the leading dimension so
            that rows do not conflict-map in caches (0 disables).
    """

    layout: str = "F"
    alignment_bytes: int = 64
    stride_padding: int = 0

    def __post_init__(self):
        if self.layout not in ("F", "C"):
            raise ValueError(f"layout must be 'F' or 'C', got {self.layout!r}")
        if self.alignment_bytes < 1:
            raise ValueError("alignment_bytes must be >= 1")
        if self.stride_padding < 0:
            # a negative pad shrinks the leading stride below the extent:
            # two indices would name the same element
            raise ValueError(
                f"stride_padding must be >= 0, got {self.stride_padding}"
            )


def make_storage(
    shape: Tuple[int, ...],
    spec: Optional[StorageSpec] = None,
    aligned_index: Optional[Tuple[int, ...]] = None,
) -> np.ndarray:
    """Allocate a zero-filled field of the model's dtype with the requested
    layout and alignment.

    Args:
        shape: field shape (any rank; FV3 uses (I, J, K) 3D fields).
        spec: allocation policy; defaults to the paper's scheme.
        aligned_index: index of the first compute-domain element (i.e. the
            element just past the halo) that must be aligned. Defaults to
            the origin.

    Returns:
        A NumPy array view with the requested strides whose
        ``aligned_index`` element sits on an ``alignment_bytes`` boundary.
    """
    spec = spec or StorageSpec()
    aligned_index = aligned_index or (0,) * len(shape)
    if len(aligned_index) != len(shape):
        raise ValueError("aligned_index rank must match shape rank")

    itemsize = np.dtype(DEFAULT_DTYPE).itemsize

    # padded shape along the contiguous dimension
    padded = list(shape)
    contiguous_dim = 0 if spec.layout == "F" else len(shape) - 1
    if spec.stride_padding:
        padded[contiguous_dim] += spec.stride_padding

    # element strides for the requested layout
    strides_elems = [0] * len(shape)
    if spec.layout == "F":
        acc = 1
        for d in range(len(shape)):
            strides_elems[d] = acc
            acc *= padded[d]
    else:
        acc = 1
        for d in range(len(shape) - 1, -1, -1):
            strides_elems[d] = acc
            acc *= padded[d]
    total_elems = acc

    # offset (in elements) of the element that must be aligned
    anchor = sum(i * s for i, s in zip(aligned_index, strides_elems))

    slack = spec.alignment_bytes // itemsize + 1
    buffer = np.empty(total_elems + slack, dtype=DEFAULT_DTYPE)
    base_addr = buffer.__array_interface__["data"][0]
    # pre-padding: shift the view start so the anchor element is aligned
    anchor_addr = base_addr + anchor * itemsize
    misalign = anchor_addr % spec.alignment_bytes
    shift_bytes = (spec.alignment_bytes - misalign) % spec.alignment_bytes
    if shift_bytes % itemsize:
        shift_bytes = 0  # cannot shift by sub-element amounts
    shift_elems = shift_bytes // itemsize

    view = np.ndarray(
        shape,
        dtype=DEFAULT_DTYPE,
        buffer=buffer,
        offset=shift_elems * itemsize,
        strides=tuple(s * itemsize for s in strides_elems),
    )
    view[...] = 0.0
    return view


def is_aligned(array: np.ndarray, index: Tuple[int, ...], alignment_bytes: int) -> bool:
    """Check whether ``array[index]`` sits on an ``alignment_bytes`` boundary."""
    addr = array.__array_interface__["data"][0]
    addr += sum(i * s for i, s in zip(index, array.strides))
    return addr % alignment_bytes == 0
