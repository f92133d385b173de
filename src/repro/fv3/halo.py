"""Halo exchange on the cubed sphere (Sec. IV-C).

"Halo updates are slightly more complex on the cubed-sphere grid, as data
must be transformed according to the orientation of the coordinate system
of the adjoining faces of the cube. We thus design a halo updater object
in Python that takes care of nonblocking communication, data packing, and
transformation based on the pair of ranks."

Implementation: gather plans are precomputed once per (rank, phase) —
for every halo cell, the owning source rank, the source array indices and
the frame rotation. The exchange runs in two phases (x-direction first,
then y-direction including corner columns) so that cube-corner halo cells
are sourced from already-updated neighbor halos, making the result
independent of the rank layout. Data travels through packed contiguous
buffers over the mpi4py-style communicator; which mailbox store that
communicator sits on (in-process, or shared memory between rank worker
processes) is invisible here.

There is one implementation, per rank and split: ``start_*`` posts a
rank's phase-0 messages, ``advance`` completes phase 0 and posts phase 1,
``finish_*`` completes phase 1 (``receive`` waits for a posted phase's
messages ahead of either, without writing them) — the SPMD body of every
rank executor
(:mod:`repro.runtime.ranks`) calls these around its interior compute.
``update_scalar`` / ``update_vector`` are whole-world conveniences over
the same three calls (start all ranks, advance all, finish all). Spans:
``halo.exchange`` (``messages`` / ``bytes`` posted) around every post and
every wait-and-scatter, ``halo.rotate_vectors`` (``cells``) around the
seam rotations, under every executor.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.fv3 import constants
from repro.fv3.communicator import LocalComm
from repro.fv3.partitioner import (
    CONNECTIVITY,
    _ROTATIONS,
    CubedSpherePartitioner,
)
from repro.obs import tracer as _obs
from repro.resilience import record as _record
from repro.resilience.errors import HaloTimeoutError
from repro.runtime import ranks as _ranks

_TRACER = _obs.get_tracer()


def _tag(fslot: int, phase: int, pi: int) -> int:
    """Message tag for plan ``pi`` of ``phase``, field slot ``fslot``.

    Slot 0 reproduces the historical ``phase * 1000 + pi`` encoding;
    higher slots let one split exchange carry several fields (u/v, or
    δp/pt/w) with disjoint (source, dest, tag) keys while all are in
    flight concurrently.
    """
    return fslot * 10000 + phase * 1000 + pi


@dataclasses.dataclass
class RankHaloExchange:
    """An in-flight split exchange for one rank: phase-0 sends and
    receives are posted; ``advance`` completes phase 0 and posts phase
    1, ``finish_*`` completes phase 1 (each followed, for vectors, by
    the phase's seam rotations).

    Between ``start_*`` and ``finish_*`` the rank may compute anything
    that does not read the halo cells of the exchanged fields — that
    window is what hides the communication latency.
    """

    rank: int
    slots: Tuple[Sequence[np.ndarray], ...]
    vector: bool
    #: first tag slot: two exchanges in flight concurrently (e.g. the
    #: wind exchange and the transported scalars) need disjoint slots
    fslot_base: int = 0
    #: the posted phase: 0 after ``start_*``, 1 after ``advance``
    phase: int = 0
    #: (slot index, plan, buffer, request) of the posted phase's receives
    reqs: List[tuple] = dataclasses.field(default_factory=list)
    #: when phase 0 had been posted (start of the overlap window)
    t_start: float = 0.0
    #: seconds spent blocked in waits so far
    blocked: float = 0.0


@dataclasses.dataclass
class GatherPlan:
    """Vectorized copy plan: dst[dst_i, dst_j] = rot(src[src_i, src_j])."""

    src_rank: int
    dst_i: np.ndarray
    dst_j: np.ndarray
    src_i: np.ndarray
    src_j: np.ndarray
    rotations: int  # CCW quarter turns applied to vector components
    #: row-major flat equivalents of (src_i, src_j) / (dst_i, dst_j) for
    #: single-axis gathers into persistent pack buffers (``np.take``)
    flat_src: np.ndarray = None
    flat_dst: np.ndarray = None

    @property
    def cells(self) -> int:
        return len(self.dst_i)


def _tile_edge_map(npx: int, tile: int, gi: int, gj: int):
    """Map an out-of-tile cell through the adjoining face.

    Returns (neighbor_tile, gi', gj', rotations). Exactly one of gi/gj must
    be out of [0, npx); crossing resolves that axis.
    """
    if gj >= npx:
        edge, g, s = "N", gj - npx, gi
    elif gj < 0:
        edge, g, s = "S", -1 - gj, gi
    elif gi >= npx:
        edge, g, s = "E", gi - npx, gj
    elif gi < 0:
        edge, g, s = "W", -1 - gi, gj
    else:
        raise ValueError("cell is inside the tile")
    conn = CONNECTIVITY[(tile, edge)]
    s2 = (npx - 1 - s) if conn.reversed else s
    if conn.edge == "E":
        gi2, gj2 = npx - 1 - g, s2
    elif conn.edge == "W":
        gi2, gj2 = g, s2
    elif conn.edge == "N":
        gi2, gj2 = s2, npx - 1 - g
    else:  # "S"
        gi2, gj2 = s2, g
    return conn.tile, gi2, gj2, conn.rotations


class HaloUpdater:
    """Precomputed cubed-sphere halo exchange for one decomposition."""

    def __init__(
        self,
        partitioner: CubedSpherePartitioner,
        n_halo: int = constants.N_HALO,
        comm: LocalComm | None = None,
    ):
        self.partitioner = partitioner
        self.n_halo = n_halo
        self.comm = comm or LocalComm(partitioner.total_ranks)
        #: plans[rank] = [phase0 plans, phase1 plans]
        self.plans: List[List[List[GatherPlan]]] = [
            self._build_rank_plans(rank)
            for rank in range(partitioner.total_ranks)
        ]
        # persistent buffers: one receive buffer per message (gather
        # plans are static per (rank, phase, field slot)), one send
        # scratch per (rank, shape, dtype), one pair per rotated plan
        self._bufs: Dict[tuple, np.ndarray] = {}
        self._buf_lock = threading.Lock()
        #: send-side inverse of ``plans``: for each source rank and
        #: phase, the (dest rank, plan index, plan) triples it must pack
        #: and post — what a rank thread needs to run its own sends
        self._send_index: List[List[List[Tuple[int, int, GatherPlan]]]] = [
            [[], []] for _ in range(partitioner.total_ranks)
        ]
        for dst in range(partitioner.total_ranks):
            for phase in (0, 1):
                for pi, plan in enumerate(self.plans[dst][phase]):
                    self._send_index[plan.src_rank][phase].append(
                        (dst, pi, plan)
                    )

    def comm_schedule(self) -> List[Tuple[int, int, int, int, int]]:
        """The message topology as plain ``(src, dst, phase, plan_index,
        cells)`` tuples — what one full exchange posts, per phase.

        This is the extraction point for the static protocol checker
        (``repro.lint.plan_ir.edges_from_schedule``): plain tuples so the
        lint layer needs nothing from this module.
        """
        edges = []
        for dst in range(self.partitioner.total_ranks):
            for phase in (0, 1):
                for pi, plan in enumerate(self.plans[dst][phase]):
                    edges.append(
                        (plan.src_rank, dst, phase, pi, plan.cells)
                    )
        return edges

    def _plan_buf(self, key: tuple, shape, dtype) -> np.ndarray:
        buf = self._bufs.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            with self._buf_lock:
                buf = self._bufs.get(key)
                if buf is None or buf.shape != shape or buf.dtype != dtype:
                    buf = np.empty(shape, dtype=dtype)
                    self._bufs[key] = buf
        return buf

    @staticmethod
    def _gather(field: np.ndarray, flat: np.ndarray, buf: np.ndarray,
                ij: Tuple[np.ndarray, np.ndarray]) -> None:
        """buf[...] = field[ij] without allocating: a single-axis ``take``
        on the row-major flattened view when the field is contiguous."""
        if field.flags["C_CONTIGUOUS"]:
            np.take(
                field.reshape((-1,) + field.shape[2:]), flat, axis=0, out=buf
            )
        else:
            buf[...] = field[ij]

    # ------------------------------------------------------------------
    def _build_rank_plans(self, rank: int) -> List[List[GatherPlan]]:
        p = self.partitioner
        h, nx, ny, npx = self.n_halo, p.nx, p.ny, p.npx
        ox, oy = p.subdomain_origin(rank)
        tile = p.tile_of(rank)

        def resolve(gi: int, gj: int):
            """(src_rank, array_i, array_j, rotations) for one halo cell."""
            t, rot = tile, 0
            if not (0 <= gi < npx and 0 <= gj < npx):
                t, gi, gj, rot = _tile_edge_map(npx, tile, gi, gj)
            # owner rank on tile t: clamp coordinates still outside (cube
            # corners read the neighbor's own, phase-1-filled halo)
            ci = min(max(gi, 0), npx - 1)
            cj = min(max(gj, 0), npx - 1)
            px, py = ci // p.nx, cj // p.ny
            src = p.rank_at(t, px, py)
            sx, sy = px * p.nx, py * p.ny
            return src, gi - sx + h, gj - sy + h, rot

        phases = []
        for phase in (0, 1):
            cells: Dict[Tuple[int, int], List[Tuple[int, int, int, int]]] = {}
            if phase == 0:  # x-direction halos, interior j only
                targets = [
                    (i, j)
                    for i in list(range(-h, 0)) + list(range(nx, nx + h))
                    for j in range(0, ny)
                ]
            else:  # y-direction halos including corner columns
                targets = [
                    (i, j)
                    for i in range(-h, nx + h)
                    for j in list(range(-h, 0)) + list(range(ny, ny + h))
                ]
            for (i, j) in targets:
                src, si, sj, rot = resolve(ox + i, oy + j)
                cells.setdefault((src, rot), []).append((i + h, j + h, si, sj))
            plans = []
            ncols = ny + 2 * h  # row-major second-axis stride, all ranks
            for (src, rot), quads in sorted(cells.items()):
                arr = np.array(quads, dtype=np.int64)
                plans.append(
                    GatherPlan(
                        src_rank=src,
                        dst_i=arr[:, 0],
                        dst_j=arr[:, 1],
                        src_i=arr[:, 2],
                        src_j=arr[:, 3],
                        rotations=rot,
                        flat_src=arr[:, 2] * ncols + arr[:, 3],
                        flat_dst=arr[:, 0] * ncols + arr[:, 1],
                    )
                )
            phases.append(plans)
        return phases

    def _rotate_rank(self, rank: int, u_fields, v_fields,
                     phase: int) -> int:
        """Rotate one rank's received vector halo cells into its local
        tile basis; returns the number of cells rotated."""
        from repro.runtime.pool import get_pool

        pool = get_pool()
        rotated = 0
        for pi, plan in enumerate(self.plans[rank][phase]):
            if plan.rotations == 0:
                continue
            rot = _ROTATIONS[plan.rotations]
            rotated += plan.cells
            uf, vf = u_fields[rank], v_fields[rank]
            shape = (plan.cells,) + uf.shape[2:]
            ij = (plan.dst_i, plan.dst_j)
            # gather both components into persistent buffers, form
            # the rotated combinations in pooled scratch, scatter
            ub = self._plan_buf(("rotu", phase, rank, pi), shape,
                                uf.dtype)
            vb = self._plan_buf(("rotv", phase, rank, pi), shape,
                                vf.dtype)
            self._gather(uf, plan.flat_dst, ub, ij)
            self._gather(vf, plan.flat_dst, vb, ij)
            t1 = pool.checkout(shape, uf.dtype)
            t2 = pool.checkout(shape, uf.dtype)
            np.multiply(rot[0, 0], ub, out=t1)
            np.multiply(rot[0, 1], vb, out=t2)
            np.add(t1, t2, out=t1)
            uf[ij] = t1
            np.multiply(rot[1, 0], ub, out=t1)
            np.multiply(rot[1, 1], vb, out=t2)
            np.add(t1, t2, out=t1)
            vf[ij] = t1
            pool.release(t2)
            pool.release(t1)
        return rotated

    # ------------------------------------------------------------------
    # the split per-rank exchange
    # ------------------------------------------------------------------
    def _post(self, ex: RankHaloExchange, phase: int) -> None:
        """Pack and post every message the rank owes its neighbors for
        one phase (all field slots), then post its own receives."""
        comm, rank = self.comm, ex.rank
        sends = self._send_index[rank][phase]
        nbytes = 0
        with _TRACER.span("halo.exchange") as sp:
            for dst, pi, plan in sends:
                for fslot, fields in enumerate(ex.slots, start=ex.fslot_base):
                    field = fields[rank]
                    shape = (plan.cells,) + field.shape[2:]
                    # the rank's own send scratch, never the receiver's
                    # "rcv" buffer: the sender may repack for the next
                    # exchange while the receiver is still scattering
                    # this one, so the two sides must never share
                    # storage. Isend snapshots the payload, making the
                    # scratch free on return — one per (rank, shape,
                    # dtype) serves every message the rank sends
                    buf = self._plan_buf(
                        ("snd", rank, shape, field.dtype), shape, field.dtype
                    )
                    self._gather(
                        field, plan.flat_src, buf, (plan.src_i, plan.src_j)
                    )
                    nbytes += buf.nbytes
                    comm.Isend(
                        buf, source=rank, dest=dst,
                        tag=_tag(fslot, phase, pi),
                    )
            ex.reqs = []
            for pi, plan in enumerate(self.plans[rank][phase]):
                for si, fields in enumerate(ex.slots):
                    fslot = ex.fslot_base + si
                    field = fields[rank]
                    shape = (plan.cells,) + field.shape[2:]
                    buf = self._plan_buf(
                        ("rcv", rank, phase, pi, fslot), shape, field.dtype
                    )
                    req = comm.Irecv(
                        buf, source=plan.src_rank, dest=rank,
                        tag=_tag(fslot, phase, pi),
                    )
                    ex.reqs.append((si, plan, buf, req))
            sp.add("messages", len(sends) * len(ex.slots))
            sp.add("bytes", nbytes)
        ex.phase = phase

    def receive(self, ex: RankHaloExchange) -> None:
        """Wait until the posted phase's messages are in their receive
        buffers, writing nothing into the fields: the ``advance`` or
        ``finish_*`` that follows scatters them without blocking. A rank
        that finishes an exchange inside a program (a callback) waits
        here first, so that it never blocks holding the program's slab."""
        with _TRACER.span("halo.exchange"):
            self._wait(ex)

    def _wait(self, ex: RankHaloExchange) -> None:
        """Complete the posted phase's receives (a request already
        completed returns at once).

        A timeout does *not* drain the communicator here — other ranks
        may still be exchanging. Whoever drives the ranks drains once
        they have all stopped (``DynamicalCore._remapping_step``, the
        whole-world ``update_*`` below).
        """
        try:
            for _, _, _, req in ex.reqs:
                t0 = time.perf_counter()
                req.wait()
                ex.blocked += time.perf_counter() - t0
        except HaloTimeoutError as exc:
            # name the owning exchange's tag-slot window so the timeout
            # is cross-referenceable with the C3xx protocol findings
            exc.phase = ex.phase
            exc.fslot_base = ex.fslot_base
            _record("halo_timeouts")
            raise

    def _complete(self, ex: RankHaloExchange) -> None:
        """Complete the posted phase's receives, scatter the halo cells
        and (for vectors) rotate them into the local tile basis."""
        rank, slots = ex.rank, ex.slots
        with _TRACER.span("halo.exchange"):
            self._wait(ex)
            for si, plan, buf, _ in ex.reqs:
                slots[si][rank][plan.dst_i, plan.dst_j] = buf
        if ex.vector:
            with _TRACER.span("halo.rotate_vectors") as sp:
                sp.add(
                    "cells",
                    self._rotate_rank(rank, slots[0], slots[1], ex.phase),
                )

    def _start(self, slots, rank: int, vector: bool,
               fslot_base: int = 0) -> RankHaloExchange:
        ex = RankHaloExchange(rank, slots, vector, fslot_base)
        self._post(ex, 0)
        ex.t_start = time.perf_counter()
        return ex

    def advance(self, ex: RankHaloExchange) -> None:
        """Complete phase 0 and post phase 1 without blocking on it.

        Pipelining step between ``start_*`` and ``finish_*`` (implied by
        ``finish_*`` when skipped): after ``advance`` the rank may post
        *another* exchange (or compute) while phase 1's messages are in
        flight, so a subsequent exchange's phase-0 latency elapses
        inside this one's phase-1 wait. The exchanged fields' edge halos
        are valid after ``advance``; corners only after ``finish_*``.
        """
        if ex.phase != 0:
            raise ValueError("advance() called twice on one exchange")
        self._complete(ex)
        self._post(ex, 1)

    def _finish(self, ex: RankHaloExchange) -> None:
        hidden = time.perf_counter() - ex.t_start
        if ex.phase == 0:
            self.advance(ex)
        self._complete(ex)
        _ranks.record_overlap(hidden, ex.blocked)

    def start_scalar(self, fields: Sequence[np.ndarray],
                     rank: int) -> RankHaloExchange:
        """Post phase 0 of one rank's scalar halo exchange (SPMD: every
        rank's body calls this). Pair with :meth:`finish_scalar`."""
        return self._start((fields,), rank, vector=False)

    def start_scalars(self, fields_list: Sequence[Sequence[np.ndarray]],
                      rank: int, fslot_base: int = 0) -> RankHaloExchange:
        """Like :meth:`start_scalar` for several fields at once — one
        fused exchange with per-field tag slots. ``fslot_base`` offsets
        the slots so this exchange can be in flight concurrently with
        another one using lower slots (disjoint message keys)."""
        return self._start(
            tuple(fields_list), rank, vector=False, fslot_base=fslot_base
        )

    def start_vector(self, u_fields: Sequence[np.ndarray],
                     v_fields: Sequence[np.ndarray],
                     rank: int) -> RankHaloExchange:
        """Post phase 0 of one rank's vector exchange (both components
        in flight together). Pair with :meth:`finish_vector`."""
        return self._start((u_fields, v_fields), rank, vector=True)

    def finish_scalar(self, ex: RankHaloExchange) -> None:
        """Complete a scalar exchange (phase 0 too, if not advanced)."""
        if ex.vector:
            raise ValueError("vector exchange passed to finish_scalar")
        self._finish(ex)

    finish_scalars = finish_scalar

    def finish_vector(self, ex: RankHaloExchange) -> None:
        """Complete a vector exchange: phases 0/1 plus seam rotations."""
        if not ex.vector:
            raise ValueError("scalar exchange passed to finish_vector")
        self._finish(ex)

    # ------------------------------------------------------------------
    def _update(self, slots, vector: bool) -> None:
        """Whole-world exchange on the calling thread: every rank
        starts, then every rank advances, then every rank finishes, so
        each wait finds its message posted. A timeout drains the aborted
        exchange so a retry can repost every send without tripping the
        duplicate-key check."""
        for fields in slots:
            self._check(fields)
        try:
            exchanges = [
                self._start(slots, rank, vector)
                for rank in range(self.partitioner.total_ranks)
            ]
            for ex in exchanges:
                self.advance(ex)
            for ex in exchanges:
                self._finish(ex)
        except HaloTimeoutError:
            self.comm.drain()
            raise

    def update_scalar(self, fields: Sequence[np.ndarray]) -> None:
        """Fill halos of one scalar field given per-rank arrays.

        Arrays are shaped (nx + 2h, ny + 2h[, nk]); the interior is
        [h:h+nx, h:h+ny].
        """
        with _TRACER.span("halo.update_scalar"):
            self._update((fields,), vector=False)

    def update_vector(
        self, u_fields: Sequence[np.ndarray], v_fields: Sequence[np.ndarray]
    ) -> None:
        """Fill halos of a vector field, rotating components across tile
        seams (A-grid components in the local tile basis)."""
        with _TRACER.span("halo.update_vector"):
            self._update((u_fields, v_fields), vector=True)

    def finalize(self, strict: bool = False):
        """Teardown drain check: report sent-but-never-received messages
        (the mailbox leak) and drop the persistent pack buffers.

        Returns the orphaned (source, dest, tag) triples from
        :meth:`LocalComm.finalize`.
        """
        orphans = self.comm.finalize(strict=strict)
        self._bufs.clear()
        return orphans

    def _check(self, fields) -> None:
        p = self.partitioner
        if len(fields) != p.total_ranks:
            raise ValueError(
                f"expected {p.total_ranks} per-rank arrays, got {len(fields)}"
            )
        want = (p.nx + 2 * self.n_halo, p.ny + 2 * self.n_halo)
        for f in fields:
            if f.shape[:2] != want:
                raise ValueError(
                    f"array shape {f.shape[:2]} does not match {want}"
                )
