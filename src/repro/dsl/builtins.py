"""Symbols available inside stencil definitions.

These objects exist so that a stencil body is *syntactically* valid Python;
they are interpreted by the frontend parser (:mod:`repro.dsl.frontend`) and
never executed directly. Calling them at runtime raises, which catches the
common mistake of invoking an undecorated stencil function.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

#: Vertical iteration policies (Fig. 3 of the paper).
PARALLEL = "PARALLEL"
FORWARD = "FORWARD"
BACKWARD = "BACKWARD"

#: Names of math functions usable inside stencils, mapped to NumPy ufuncs
#: at execution time by the backends.
MATH_BUILTINS = frozenset(
    {
        "sqrt",
        "abs",
        "exp",
        "log",
        "sin",
        "cos",
        "tan",
        "asin",
        "acos",
        "atan",
        "floor",
        "ceil",
        "trunc",
        "min",
        "max",
        "sign",
    }
)


class _ParseOnlyError(TypeError):
    pass


def _parse_only(name: str):
    def fn(*args, **kwargs):
        raise _ParseOnlyError(
            f"'{name}' is a stencil DSL construct and can only appear inside "
            f"a function decorated with @stencil."
        )

    fn.__name__ = name
    return fn


computation = _parse_only("computation")
interval = _parse_only("interval")
horizontal = _parse_only("horizontal")


@dataclasses.dataclass(frozen=True)
class AxisAnchor:
    """A symbolic index at a compute-domain edge: ``i_start`` is the first
    column of the tile in the first horizontal dimension, ``i_end`` its
    last. Used by horizontal regions (Sec. IV-B).
    """

    axis: str  # "i" or "j"
    side: str  # "start" or "end"

    def __repr__(self) -> str:
        return f"{self.axis}_{self.side}"


i_start = AxisAnchor("i", "start")
i_end = AxisAnchor("i", "end")
j_start = AxisAnchor("j", "start")
j_end = AxisAnchor("j", "end")


@dataclasses.dataclass(frozen=True)
class RegionAxisSpec:
    """Restriction of one horizontal axis inside a region.

    ``start``/``stop`` are :class:`AxisAnchor` or ``None`` (unbounded).
    ``single`` marks a one-index restriction (``region[i_start, :]``).
    """

    start: Optional[AxisAnchor] = None
    stop: Optional[AxisAnchor] = None
    single: bool = False

    @staticmethod
    def full() -> "RegionAxisSpec":
        return RegionAxisSpec()

    @property
    def is_full(self) -> bool:
        return self.start is None and self.stop is None and not self.single


@dataclasses.dataclass(frozen=True)
class RegionSpec:
    """A rectangular horizontal sub-domain specified with axis anchors."""

    i: RegionAxisSpec
    j: RegionAxisSpec

    def __repr__(self) -> str:
        def fmt(spec: RegionAxisSpec) -> str:
            if spec.is_full:
                return ":"
            if spec.single:
                return repr(spec.start)
            lo = "" if spec.start is None else repr(spec.start)
            hi = "" if spec.stop is None else repr(spec.stop)
            return f"{lo}:{hi}"

        return f"region[{fmt(self.i)}, {fmt(self.j)}]"


class _RegionFactory:
    """``region[...]`` subscription builds a :class:`RegionSpec`."""

    def __getitem__(self, item: Tuple) -> RegionSpec:
        if not isinstance(item, tuple) or len(item) != 2:
            raise ValueError("region[...] requires exactly two axis entries")
        return RegionSpec(
            i=self._axis_spec(item[0], "i"), j=self._axis_spec(item[1], "j")
        )

    @staticmethod
    def _axis_spec(entry, axis: str) -> RegionAxisSpec:
        if isinstance(entry, slice):
            if entry == slice(None):
                return RegionAxisSpec.full()
            start, stop = entry.start, entry.stop
            for bound in (start, stop):
                if bound is not None and not isinstance(bound, AxisAnchor):
                    raise ValueError(
                        f"region bounds must be axis anchors, got {bound!r}"
                    )
            return RegionAxisSpec(start=start, stop=stop)
        if isinstance(entry, AxisAnchor):
            if entry.axis != axis:
                raise ValueError(
                    f"anchor {entry!r} used on the {axis!r} axis of a region"
                )
            return RegionAxisSpec(start=entry, single=True)
        raise ValueError(f"invalid region axis entry: {entry!r}")


region = _RegionFactory()

