"""Type annotations and axis metadata for the stencil DSL.

Fields are annotated in stencil signatures as ``Field`` (3D, the default),
``FieldIJ`` (2D horizontal) or ``FieldK`` (1D vertical column). Scalars are
annotated with plain Python types (``float``, ``int``, ``bool``).
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

#: Default floating-point type used throughout the model (the paper runs
#: FV3 in double precision).
DEFAULT_DTYPE = np.float64

#: Canonical axis names in storage order used by the DSL.
AXES: Tuple[str, str, str] = ("I", "J", "K")


@dataclasses.dataclass(frozen=True)
class FieldType:
    """Static type of a field parameter.

    Attributes:
        axes: subset of ``"IJK"`` present in the field, in canonical order.
        dtype: NumPy scalar dtype of the elements.
    """

    axes: str = "IJK"
    dtype: type = DEFAULT_DTYPE

    @property
    def ndim(self) -> int:
        return len(self.axes)


class Field:
    """3D field annotation (I, J, K axes)."""


class FieldIJ:
    """2D horizontal field annotation (I, J axes)."""


class FieldK:
    """1D vertical column field annotation (K axis)."""


#: Mapping from annotation objects to FieldType instances.
_ANNOTATION_MAP = {
    Field: FieldType(axes="IJK"),
    FieldIJ: FieldType(axes="IJ"),
    FieldK: FieldType(axes="K"),
}


def field_type_from_annotation(annotation) -> FieldType | None:
    """Resolve a signature annotation to a :class:`FieldType`.

    Returns ``None`` when the annotation denotes a scalar parameter.
    """
    return _ANNOTATION_MAP.get(annotation)


def scalar_dtype_from_annotation(annotation) -> type:
    """Resolve a scalar annotation to a NumPy dtype (default float64)."""
    if annotation in (float, None):
        return np.float64
    if annotation is int:
        return np.int64
    if annotation is bool:
        return np.bool_
    if isinstance(annotation, type) and issubclass(annotation, np.generic):
        return annotation
    return np.float64
