"""SDFG graph nodes: access nodes, tasklets, callbacks, library nodes and
expanded map-scoped kernels.

Stencil computations enter the graph as :class:`StencilComputation` library
nodes carrying schedule attributes (Sec. V-A); :func:`repro.sdfg.expansion`
expands them into :class:`Kernel` nodes — the unit the paper calls a "GPU
kernel (map)" — on which transformations, the performance model and code
generation operate.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dsl.backend_numpy import GridBounds, region_ranges
from repro.dsl.extents import Extent
from repro.dsl.ir import Assign, FieldAccess, Interval, count_flops, expr_reads
from repro.sdfg.subsets import Range

_node_ids = itertools.count()


class Node:
    """Base graph node with a unique id."""

    def __init__(self, label: str):
        self.node_id = next(_node_ids)
        self.label = label

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label!r})"


class AccessNode(Node):
    """Oval data-container node (derived for analysis/visualization)."""

    def __init__(self, data: str):
        super().__init__(data)
        self.data = data


class Tasklet(Node):
    """Octagonal fine-grained computation on scalars.

    ``code`` is a Python expression over ``inputs``; the result is bound to
    ``output`` in the program's scalar namespace.
    """

    def __init__(self, label: str, code: str, inputs: Tuple[str, ...], output: str):
        super().__init__(label)
        self.code = code
        self.inputs = inputs
        self.output = output


@dataclasses.dataclass(frozen=True)
class ContainerRef:
    """A callback argument that names one of the program's data containers;
    the array is looked up in the ``arrays`` of each call, so one compiled
    program serves every set of arrays it is bound to."""

    name: str


def constant_key(value):
    """Hashable by-value identity of a constant, or ``None`` when ``value``
    can only be told apart by object identity.

    Scalars (Python and NumPy), ranges, ``GridBounds`` and tuples of those
    have one; the key carries the type and the ``repr`` so ``1``/``1.0``/
    ``True`` and ``0.0``/``-0.0`` differ and NaN equals itself.
    """
    if isinstance(value, (bool, int, float, str, type(None), range,
                          np.generic)):
        return (type(value), repr(value))
    if isinstance(value, tuple):
        keys = tuple(constant_key(v) for v in value)
        return None if None in keys else (tuple, keys)
    if isinstance(value, GridBounds):
        keys = (constant_key(value.origin), constant_key(value.tile_shape))
        return None if None in keys else (GridBounds, keys)
    return None


class Callback(Node):
    """Automatic callback to interpreted Python (Sec. V-B).

    Functions that cannot be parsed data-centrically are invoked through a
    C-function-pointer-like indirection; a ``__pystate`` dummy dependency
    serializes callbacks against each other so optimization passes cannot
    reorder them (Calotoiu et al.).

    Array arguments are :class:`ContainerRef`s, resolved per call; constant
    arguments are kept by value. Any other argument is an opaque object
    held by reference, which ties the program to that object.
    """

    def __init__(self, label: str, func, args: Tuple = (), kwargs: Optional[Dict] = None):
        super().__init__(label)
        self.func = func
        self.args = args
        self.kwargs = kwargs or {}
        # data containers the callback may touch (conservatively all, unless
        # declared); None means "unknown: full barrier"
        self.reads: Optional[List[str]] = None
        self.writes: Optional[List[str]] = None

    def caller(self):
        """``call(arrays)``: invoke the function with every container
        reference replaced by that container's array."""
        func, args, kwargs = self.func, self.args, self.kwargs
        values = args + tuple(kwargs.values())
        if not any(isinstance(v, ContainerRef) for v in values):
            return lambda arrays: func(*args, **kwargs)

        def resolve(value, arrays):
            return arrays[value.name] if isinstance(value, ContainerRef) \
                else value

        def call(arrays):
            func(
                *[resolve(a, arrays) for a in args],
                **{k: resolve(v, arrays) for k, v in kwargs.items()},
            )

        return call


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

#: Canonical schedule orders found by the paper's layout sweep (Sec. VI-A4).
HORIZONTAL_SCHEDULE = ("Interval", "Operation", "K", "J", "I")
VERTICAL_SCHEDULE = ("J", "I", "Interval", "Operation", "K")

#: Default (pre-tuning) expansion schedules: the generic choice a backend
#: makes with no layout knowledge — unit stride on the wrong dimension for
#: the FORTRAN (I-contiguous) data layout. The gap between these and the
#: swept schedules is the paper's "Default → Stencil schedule heuristics"
#: step (Table III: 10.87 s → 5.56 s).
NAIVE_HORIZONTAL_SCHEDULE = ("Interval", "Operation", "I", "J", "K")
NAIVE_VERTICAL_SCHEDULE = ("Interval", "Operation", "K", "I", "J")


@dataclasses.dataclass
class KernelSchedule:
    """Hardware-mapping attributes of a stencil computation (Sec. V-A).

    These mirror the paper's library-node attributes: iteration order,
    tiling, map-vs-loop per dimension, cache placement for fields, and the
    strategy for horizontal regions. In this reproduction the schedule
    drives the machine performance model and (for fusion/interval knobs)
    the generated code; tile sizes do not change NumPy codegen.
    """

    iteration_order: Tuple[str, ...] = HORIZONTAL_SCHEDULE
    tile_sizes: Optional[Tuple[int, int, int]] = None
    loop_dims: Tuple[str, ...] = ()  # dims scheduled as loops, not maps
    cached_fields: Dict[str, str] = dataclasses.field(default_factory=dict)
    regions_as_predication: bool = True
    fuse_intervals: bool = True
    device: str = "gpu"

    def copy(self) -> "KernelSchedule":
        return dataclasses.replace(self, cached_fields=dict(self.cached_fields))

    def is_valid_for(self, order: str) -> bool:
        """Check feasibility of this schedule for an iteration policy.

        Vertical solvers carry loop dependencies along K, so K must be
        scheduled as a sequential loop (be the innermost dimension and
        appear in ``loop_dims``)."""
        if order in ("FORWARD", "BACKWARD"):
            return self.iteration_order[-1] == "K" or "K" in self.loop_dims
        return True


def feasible_schedules(order: str) -> List[KernelSchedule]:
    """Enumerate the feasible schedule options for an iteration policy.

    This is the paper's "list of feasible options from which we make a
    preferred choice, which can be used for tuning" (Sec. V-A).
    """
    horiz_orders = [
        ("Interval", "Operation", "K", "J", "I"),
        ("Interval", "Operation", "K", "I", "J"),
        ("Interval", "Operation", "J", "I", "K"),
    ]
    vert_orders = [
        ("J", "I", "Interval", "Operation", "K"),
        ("I", "J", "Interval", "Operation", "K"),
    ]
    tiles = [None, (64, 8, 1), (32, 4, 1), (128, 1, 1)]
    out = []
    orders = vert_orders if order in ("FORWARD", "BACKWARD") else horiz_orders
    for io in orders:
        for tile in tiles:
            loop_dims = ("K",) if order in ("FORWARD", "BACKWARD") else ()
            sched = KernelSchedule(
                iteration_order=io, tile_sizes=tile, loop_dims=loop_dims
            )
            if sched.is_valid_for(order):
                out.append(sched)
    return out


# ---------------------------------------------------------------------------
# Kernels (expanded map scopes)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class KernelSection:
    """One vertical interval of a kernel with its statements.

    Each statement is paired with the horizontal extent over which it must
    be computed (from extent inference).
    """

    interval: Interval
    statements: List[Tuple[Assign, Extent]]


class Kernel(Node):
    """A map-scoped computation: one generated device kernel.

    Statements refer to SDFG container names; ``local_arrays`` are
    kernel-internal temporaries (held in registers/shared memory on a GPU;
    the performance model does not charge DRAM traffic for them).
    """

    def __init__(
        self,
        label: str,
        order: str,
        sections: List[KernelSection],
        domain: Tuple[int, int, int],
        origin: Tuple[int, int, int],
        schedule: Optional[KernelSchedule] = None,
        local_arrays: Optional[Dict[str, Extent]] = None,
        bounds: Optional[GridBounds] = None,
        origins: Optional[Dict[str, Tuple[int, int, int]]] = None,
    ):
        super().__init__(label)
        self.order = order
        self.sections = sections
        self.domain = domain
        self.origin = origin
        self.schedule = schedule or KernelSchedule()
        self.local_arrays = local_arrays or {}
        self.bounds = bounds or GridBounds()
        #: per-container origin overrides (e.g. transient temporaries whose
        #: buffers start at their negative extent)
        self.origins = origins or {}
        #: labels of the original stencil computations folded into this
        #: kernel by fusion transformations (used by transfer tuning)
        self.constituents: List[str] = [label]
        #: source file of the stencil definition this kernel was expanded
        #: from (diagnostics); statement linenos refer into this file
        self.source_file: Optional[str] = None

    def origin_of(self, name: str) -> Tuple[int, int, int]:
        return self.origins.get(name, self.origin)

    # ---- structural queries --------------------------------------------

    def statements(self) -> List[Tuple[Assign, Extent]]:
        return [se for s in self.sections for se in s.statements]

    def written_fields(self) -> List[str]:
        seen: Dict[str, None] = {}
        for stmt, _ in self.statements():
            if stmt.target.name not in self.local_arrays:
                seen.setdefault(stmt.target.name, None)
        return list(seen)

    def read_fields(self) -> List[str]:
        seen: Dict[str, None] = {}
        for stmt, _ in self.statements():
            for acc in expr_reads(stmt):
                if acc.name not in self.local_arrays:
                    seen.setdefault(acc.name, None)
        return list(seen)

    # ---- exact data movement --------------------------------------------

    def _stmt_ranges(self, stmt: Assign, ext: Extent, interval: Interval):
        """Horizontal compute-index ranges of one statement (or None).

        Region statements executed as *predicated* full-domain maps touch
        the full extended range (masked writes read-modify-write the whole
        target); when *split* into their own sub-kernels they touch only
        the region's intersection with the domain.
        """
        ni, nj, nk = self.domain
        irange = (ext.i_lo, ni + ext.i_hi)
        jrange = (ext.j_lo, nj + ext.j_hi)
        if stmt.region is not None:
            ranges = region_ranges(stmt.region, self.domain, self.bounds, ext)
            if ranges is None:
                return None
            if not self.schedule.regions_as_predication:
                irange, jrange = ranges
        k0, k1 = interval.resolve(nk)
        k0, k1 = max(k0, 0), min(k1, nk)
        if k0 >= k1:
            return None
        return irange, jrange, (k0, k1)

    def access_subsets(
        self, axes_of, skip_regions: bool = False
    ) -> Tuple[Dict[str, Range], Dict[str, Range]]:
        """Exact per-container read/write subsets in array coordinates.

        ``axes_of`` maps a container name to its axes string ("IJK", ...).
        Returns (reads, writes) as bounding-box :class:`Range` unions.
        ``skip_regions`` omits region-restricted statements (used by the
        data-movement model, which accounts for them per statement).
        """
        reads: Dict[str, Range] = {}
        writes: Dict[str, Range] = {}

        def note(store: Dict[str, Range], name: str, offset, ranges):
            axes = axes_of(name)
            origin = self.origin_of(name)
            irange, jrange, krange = ranges
            di, dj, dk = offset
            dims = []
            if "I" in axes:
                dims.append(
                    (origin[0] + irange[0] + di, origin[0] + irange[1] + di)
                )
            if "J" in axes:
                dims.append(
                    (origin[1] + jrange[0] + dj, origin[1] + jrange[1] + dj)
                )
            if "K" in axes:
                dims.append(
                    (origin[2] + krange[0] + dk, origin[2] + krange[1] + dk)
                )
            r = Range.of(*dims)
            store[name] = store[name].union(r) if name in store else r

        for section in self.sections:
            for stmt, ext in section.statements:
                if skip_regions and stmt.region is not None:
                    continue
                ranges = self._stmt_ranges(stmt, ext, section.interval)
                if ranges is None:
                    continue
                if stmt.target.name not in self.local_arrays:
                    note(writes, stmt.target.name, (0, 0, 0), ranges)
                for acc in expr_reads(stmt):
                    if acc.name not in self.local_arrays:
                        note(reads, acc.name, acc.offset, ranges)
        return reads, writes

    def _region_stmt_bytes(self, sdfg) -> int:
        """Traffic of region-restricted statements, counted per statement.

        Predicated regions sweep their full extended range (masked writes
        read-modify-write the whole target); split regions touch only the
        intersection — the effect behind the paper's "Split regions to
        multiple kernels" optimization step (Table III).
        """
        import numpy as np

        total = 0
        for section in self.sections:
            for stmt, ext in section.statements:
                if stmt.region is None:
                    continue
                ranges = self._stmt_ranges(stmt, ext, section.interval)
                if ranges is None:
                    continue
                irange, jrange, krange = ranges
                points = (
                    (irange[1] - irange[0])
                    * (jrange[1] - jrange[0])
                    * (krange[1] - krange[0])
                )
                unique = {(a.name, a.offset) for a in expr_reads(stmt)}
                unique.add((stmt.target.name, (0, 0, 0)))
                for name, _ in unique:
                    if name in self.local_arrays:
                        continue
                    total += points * np.dtype(
                        sdfg.arrays[name].dtype
                    ).itemsize
        return total

    def moved_bytes(self, sdfg) -> int:
        """Modeled DRAM traffic: every accessed element counted once per
        kernel (the paper's cache-free model, Sec. VI-C); region
        statements are charged per statement (see _region_stmt_bytes)."""
        reads, writes = self.access_subsets(
            lambda n: sdfg.arrays[n].axes, skip_regions=True
        )
        import numpy as np

        total = self._region_stmt_bytes(sdfg)
        # caching never removes the *first* DRAM touch, so the once-model
        # floor counts every accessed element exactly once
        for name, rng in reads.items():
            total += rng.volume() * np.dtype(sdfg.arrays[name].dtype).itemsize
        for name, rng in writes.items():
            total += rng.volume() * np.dtype(sdfg.arrays[name].dtype).itemsize
        return total

    def launch_count(self) -> int:
        """Device-kernel launches this node represents.

        With regions split to multiple kernels (Sec. V-A), each region
        statement becomes its own launch over its sub-domain.
        """
        if self.schedule.regions_as_predication:
            return 1
        n_region = sum(1 for s, _ in self.statements() if s.region is not None)
        return 1 + n_region if n_region else 1

    def excess_access_bytes(self, sdfg) -> int:
        """Bytes of *repeated* element accesses beyond the first touch.

        The paper's bound model counts each element once; hardware serves
        repeated accesses from caches at finite cost unless the schedule
        buffers them in registers/shared memory (Sec. VI-A2). This excess
        is what the local-storage transformation eliminates.
        """
        import numpy as np

        per_access = 0
        for section in self.sections:
            for stmt, ext in section.statements:
                ranges = self._stmt_ranges(stmt, ext, section.interval)
                if ranges is None:
                    continue
                irange, jrange, krange = ranges
                points = (
                    (irange[1] - irange[0])
                    * (jrange[1] - jrange[0])
                    * (krange[1] - krange[0])
                )
                # identical (name, offset) reads within one statement are
                # CSE'd into registers by any real compiler: count once
                unique_reads = {
                    (acc.name, acc.offset) for acc in expr_reads(stmt)
                }
                for name, _ in unique_reads:
                    if name in self.local_arrays:
                        continue
                    if name in self.schedule.cached_fields:
                        continue
                    itemsize = np.dtype(sdfg.arrays[name].dtype).itemsize
                    per_access += points * itemsize
        reads, _ = self.access_subsets(lambda n: sdfg.arrays[n].axes)
        once = 0
        for name, rng in reads.items():
            if name in self.schedule.cached_fields:
                continue
            itemsize = np.dtype(sdfg.arrays[name].dtype).itemsize
            once += rng.volume() * itemsize
        # vertical solvers re-load the value they just computed on the
        # previous level unless it is register-buffered (Sec. VI-A2 item 3)
        forwarded = 0
        if self.order in ("FORWARD", "BACKWARD"):
            written = set(self.written_fields())
            for section in self.sections:
                for stmt, ext in section.statements:
                    ranges = self._stmt_ranges(stmt, ext, section.interval)
                    if ranges is None:
                        continue
                    irange, jrange, krange = ranges
                    points = (
                        (irange[1] - irange[0])
                        * (jrange[1] - jrange[0])
                        * (krange[1] - krange[0])
                    )
                    for name, offset in {
                        (a.name, a.offset) for a in expr_reads(stmt)
                    }:
                        if (
                            name in written
                            and offset[2] != 0
                            and name not in self.schedule.cached_fields
                            and name not in self.local_arrays
                        ):
                            forwarded += points * np.dtype(
                                sdfg.arrays[name].dtype
                            ).itemsize
        return max(0, per_access - once) + forwarded

    def flops(self) -> int:
        """Modeled arithmetic operations over the iteration space."""
        ni, nj, nk = self.domain
        total = 0
        for section in self.sections:
            for stmt, ext in section.statements:
                ranges = self._stmt_ranges(stmt, ext, section.interval)
                if ranges is None:
                    continue
                irange, jrange, krange = ranges
                points = (
                    (irange[1] - irange[0])
                    * (jrange[1] - jrange[0])
                    * (krange[1] - krange[0])
                )
                total += stmt_flops(stmt) * points
        return total

    def iteration_points(self) -> int:
        ni, nj, nk = self.domain
        return ni * nj * nk

    def has_regions(self) -> bool:
        return any(s.region is not None for s, _ in self.statements())

    def copy(self) -> "Kernel":
        dup = self._copy_impl()
        dup.constituents = list(self.constituents)
        dup.source_file = self.source_file
        return dup

    def _copy_impl(self) -> "Kernel":
        return Kernel(
            self.label,
            self.order,
            [
                KernelSection(sec.interval, list(sec.statements))
                for sec in self.sections
            ],
            self.domain,
            self.origin,
            self.schedule.copy(),
            dict(self.local_arrays),
            self.bounds,
            dict(self.origins),
        )


def stmt_flops(stmt: Assign) -> int:
    """Modeled arithmetic operations of one statement at one point."""
    ops = count_flops(stmt.value) + (
        count_flops(stmt.mask) + 1 if stmt.mask is not None else 0
    )
    return max(ops, 1)


# ---------------------------------------------------------------------------
# Library node
# ---------------------------------------------------------------------------


class StencilComputation(Node):
    """Coarse-grained library node wrapping a stencil definition.

    ``mapping`` renames stencil parameter names to SDFG container names.
    The node is *expanded* (Sec. III-B, Fig. 4c) into Kernel nodes.
    """

    def __init__(
        self,
        stencil_def,
        extents,
        mapping: Dict[str, str],
        domain: Tuple[int, int, int],
        origin: Tuple[int, int, int],
        scalar_mapping: Optional[Dict[str, str]] = None,
        schedule: Optional[KernelSchedule] = None,
        bounds: Optional[GridBounds] = None,
    ):
        super().__init__(stencil_def.name)
        self.stencil_def = stencil_def
        self.extents = extents
        self.mapping = mapping
        self.scalar_mapping = scalar_mapping or {}
        self.domain = domain
        self.origin = origin
        self.schedule = schedule or KernelSchedule()
        self.bounds = bounds or GridBounds()

    @staticmethod
    def from_stencil(stencil_object, mapping=None, domain=None, origin=None,
                     scalar_mapping=None, bounds=None):
        mapping = mapping or {
            p.name: p.name for p in stencil_object.definition.field_params
        }
        h = stencil_object.n_halo
        origin = origin or (h, h, 0)
        if domain is None:
            raise ValueError("StencilComputation requires an explicit domain")
        return StencilComputation(
            stencil_object.definition,
            stencil_object.extents,
            mapping,
            domain,
            origin,
            scalar_mapping=scalar_mapping,
            bounds=bounds,
        )

    def written_containers(self) -> List[str]:
        return [self.mapping[f] for f in self.stencil_def.written_fields()
                if f in self.mapping]

    def read_containers(self) -> List[str]:
        return [self.mapping[f] for f in self.stencil_def.read_fields()
                if f in self.mapping]
