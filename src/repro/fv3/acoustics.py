"""The acoustic sub-step loop (the blue region of Fig. 2).

One acoustic sub-step of the Lagrangian dynamics, as the SPMD body every
rank runs (``AcousticDynamics._substep_rank``), whichever way the rank
executor schedules it (:mod:`repro.runtime.ranks`):

1. start the nonblocking halo exchange of the winds,
2. ``riem_solver_c``: the semi-implicit vertical solve for w and δz,
   inside the wind exchange's window,
3. start the fused exchange of the transported scalars δp/pt/w on
   disjoint tag slots; advance both exchanges; finish the winds,
4. ``c_sw``: interface winds, Courant numbers, swept areas, divergence,
5. finish the scalars; ``d_sw``: finite-volume transport of δp/pt/w,
   vector-invariant momentum update with Smagorinsky and divergence
   damping,
6. accumulation of Courant numbers/mass fluxes for the tracer transport.

The body ``yield``s before each group of waits (twice per sub-step), so
the lockstep schedule finds every message posted. The same order is
published as a static plan (:func:`acoustic_comm_plan`) for the C3xx
protocol checker. Steps 2, 4, 5 and 6 are orchestrated programs; which,
and on what arguments, is written down once
(``AcousticDynamics.programs``) for the body to call and for
``DynamicalCore.prepare`` to bind ahead of the first step.
"""

from __future__ import annotations

from functools import partial
from typing import List, Tuple

import numpy as np

from repro.fv3 import constants
from repro.fv3.communicator import LocalComm
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.corners import rank_corners
from repro.fv3.grid import CubedSphereGrid
from repro.fv3.halo import HaloUpdater
from repro.fv3.initial import RankFields
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.fv3.stencils.c_sw import CGridSolver
from repro.fv3.stencils.d_sw import DGridSolver
from repro.fv3.stencils.fvtp2d import FiniteVolumeTransport
from repro.fv3.stencils.riem_solver_c import RiemannSolverC
from repro.fv3.stencils.tracer2d import accumulate_fluxes
from repro.obs import tracer as _obs
from repro.orchestration import orchestrate
from repro.runtime import ranks as _ranks

_TRACER = _obs.get_tracer()


def acoustic_comm_plan(halo: HaloUpdater | None = None):
    """The acoustic sub-step's communication schedule as a static
    :class:`repro.lint.plan_ir.CommPlan`.

    This is the declared contract the C3xx protocol rules verify: the
    split wind and scalar exchanges with their tag-slot bases, and the
    compute ops between them with read/write footprints taken from the
    real stencil extents, in ``_substep_rank``'s order. Message edges
    come from ``halo.comm_schedule()`` (a default 6-rank decomposition
    when no updater is passed).
    """
    from repro.lint import plan_ir
    from repro.fv3.stencils.c_sw import cgrid_winds_x, cgrid_winds_y
    from repro.fv3.stencils.riem_solver_c import (
        precompute_coefficients,
        tridiagonal_solve,
        update_heights,
    )

    if halo is None:
        halo = HaloUpdater(CubedSpherePartitioner(12, 1))
    h = halo.n_halo
    winds = plan_ir.ExchangeDecl("winds", ("u", "v"), fslot_base=0,
                                 vector=True)
    # the transported scalars fly concurrently with the winds, so they
    # sit past the wind exchange's two slots
    scalars = plan_ir.ExchangeDecl(
        "scalars", ("delp", "pt", "w"), fslot_base=2
    )
    riemann_op = plan_ir.compute_op_from_stencils("riem_solver_c", [
        (precompute_coefficients,
         {"delz": "delz", "pt": "pt", "w": "w", "delp": "delp"}),
        (tridiagonal_solve, {"w": "w"}),
        (update_heights, {"w": "w", "delz": "delz"}),
    ])
    # c_sw computes interface quantities over the halo-extended domain,
    # reading the full wind halos (its other parameters are private
    # workspace arrays, not exchanged fields)
    c_sw_op = plan_ir.compute_op_from_stencils("c_sw", [
        (cgrid_winds_x, {"ua": "u"}, h),
        (cgrid_winds_y, {"va": "v"}, h),
    ])
    d_sw_op = plan_ir.ComputeOp(
        "d_sw",
        reads={f: plan_ir.halo_extent(h)
               for f in ("u", "v", "delp", "pt", "w")},
        writes={f: plan_ir.halo_extent(0)
                for f in ("u", "v", "delp", "pt", "w")},
    )
    return plan_ir.CommPlan.spmd(
        name="acoustics.substep",
        n_ranks=halo.partitioner.total_ranks,
        exchanges=(winds, scalars),
        program=(
            plan_ir.StartOp("winds"),
            riemann_op,
            plan_ir.StartOp("scalars"),
            plan_ir.AdvanceOp("winds"),
            plan_ir.AdvanceOp("scalars"),
            plan_ir.FinishOp("winds"),
            c_sw_op,
            plan_ir.FinishOp("scalars"),
            d_sw_op,
        ),
        edges=halo.comm_schedule(),
    )


def build_comm_plans():
    """Discovery hook for ``python -m repro.lint --comm``: the acoustic
    schedule on the default 6-rank decomposition."""
    return [acoustic_comm_plan()]


class RankWorkspace:
    """Per-rank work arrays of the acoustic step."""

    def __init__(self, nx, ny, nk, h):
        shape = (nx + 2 * h, ny + 2 * h, nk)
        self.shape = shape
        self.crx = np.zeros(shape)
        self.cry = np.zeros(shape)
        self.xfx = np.zeros(shape)
        self.yfx = np.zeros(shape)
        self.crx_adv = np.zeros(shape)
        self.cry_adv = np.zeros(shape)
        self.xfx_adv = np.zeros(shape)
        self.yfx_adv = np.zeros(shape)
        self.delpc = np.zeros(shape)

    def zero_accumulators(self):
        self.crx_adv[:] = 0.0
        self.cry_adv[:] = 0.0
        self.xfx_adv[:] = 0.0
        self.yfx_adv[:] = 0.0

    @orchestrate
    def accumulate(self):
        """Add this sub-step's Courant numbers and swept areas to what
        the tracer transport of the remapping step will ride."""
        accumulate_fluxes(
            self.crx, self.cry, self.xfx, self.yfx,
            self.crx_adv, self.cry_adv, self.xfx_adv, self.yfx_adv,
            1.0,
            origin=(0, 0, 0),
            domain=self.shape,
        )


class AcousticDynamics:
    """Drives the acoustic loop across the ranks the halo updater's
    communicator owns (all of them unless it is one endpoint of a shared
    mailbox). Every per-rank list is indexed by rank and holds ``None``
    for a rank that runs elsewhere."""

    def __init__(
        self,
        config: DynamicalCoreConfig,
        partitioner: CubedSpherePartitioner,
        grids: List[CubedSphereGrid],
        states: List[RankFields],
        halo: HaloUpdater,
        executor: _ranks.RankExecutor,
        n_halo: int = constants.N_HALO,
    ):
        self.config = config
        self.partitioner = partitioner
        self.grids = grids
        self.states = states
        self.halo = halo
        self.h = n_halo
        self.executor = executor
        self.ranks = halo.comm.owned_ranks
        per_rank = halo.comm.per_rank
        # stable per-field rank lists for the split halo API (snapshots
        # restore into these arrays in place, so the views stay valid)
        self._u = per_rank(lambda rank: states[rank].u)
        self._v = per_rank(lambda rank: states[rank].v)
        self._delp = per_rank(lambda rank: states[rank].delp)
        self._pt = per_rank(lambda rank: states[rank].pt)
        self._w = per_rank(lambda rank: states[rank].w)
        nx, ny, nk = partitioner.nx, partitioner.ny, config.npz
        self.work = per_rank(lambda rank: RankWorkspace(nx, ny, nk, n_halo))
        self.transports = per_rank(lambda rank: FiniteVolumeTransport(
            nx, ny, nk, grids[rank].rarea, rank_corners(partitioner, rank),
            n_halo=n_halo,
        ))
        self.c_sw = per_rank(lambda rank: CGridSolver(
            nx, ny, nk, grids[rank].dx, grids[rank].dy, grids[rank].rarea,
            n_halo=n_halo,
        ))
        self.d_sw = per_rank(lambda rank: DGridSolver(
            grids[rank], self.transports[rank], config,
            bounds=partitioner.bounds(rank), n_halo=n_halo,
        ))
        self.riemann = per_rank(
            lambda rank: RiemannSolverC(nx, ny, nk, n_halo=n_halo)
        )

    def comm_plan(self):
        """This instance's communication schedule over its real halo
        topology, for the C3xx protocol checker and the transformation
        audit."""
        return acoustic_comm_plan(self.halo)

    # ------------------------------------------------------------------
    def substep(self, dt: float) -> None:
        """One acoustic sub-step across this endpoint's ranks."""
        with _TRACER.span("acoustics.substep"):
            self.executor.run(
                lambda r: self._substep_rank(r, dt),
                self.ranks,
                label="acoustics.substep",
            )

    def programs(self, rank: int, dt: float) -> Tuple[partial, ...]:
        """One rank's sub-step as its orchestrated programs on their
        arguments, in call order: the Riemann solve, c_sw, the three
        d_sw programs, the flux accumulation (the program of a module
        object is its ``__call__``). The rank body calls these and
        ``DynamicalCore.prepare`` binds these, so what is compiled ahead
        is what runs."""
        s, w, d_sw = self.states[rank], self.work[rank], self.d_sw[rank]
        return (
            partial(self.riemann[rank].__call__,
                    s.w, s.delz, s.pt, s.delp, dt),
            partial(self.c_sw[rank].__call__,
                    s.u, s.v, w.crx, w.cry, w.xfx, w.yfx, w.delpc, dt),
            partial(d_sw.transport_fields,
                    s.delp, s.pt, s.w, w.crx, w.cry, w.xfx, w.yfx),
            partial(d_sw.momentum,
                    s.u, s.v, s.pt, s.delp, s.delz, w.delpc, dt),
            partial(d_sw.damp_fields, s.delp, s.pt),
            partial(w.accumulate),
        )

    def _substep_rank(self, rank: int, dt: float):
        """SPMD body: one rank's acoustic sub-step.

        Software-pipelined exchanges: the Riemann solve reads and writes
        only w/δz/pt/δp — independent of the winds — so it fills the
        wind exchange's phase-0 window; the transported scalars (which
        riemann just finished writing, and which c_sw never reads) go in
        flight on disjoint tag slots immediately after, so both scalar
        phases ride inside the wind exchange's waits. Per sub-step only
        the two wind phases are exposed. c_sw still runs on completely
        filled u/v halos.
        """
        riemann, c_sw, *d_sw_and_accumulate = self.programs(rank, dt)
        halo = self.halo
        hx = halo.start_vector(self._u, self._v, rank)
        riemann()
        sx = halo.start_scalars(
            (self._delp, self._pt, self._w), rank, fslot_base=2
        )
        yield  # peers post both phase 0s
        halo.advance(hx)
        halo.advance(sx)
        yield  # peers post both phase 1s
        halo.finish_vector(hx)
        c_sw()
        halo.finish_scalars(sx)
        for program in d_sw_and_accumulate:
            program()

    def run(self, dt_acoustic: float, n_split: int) -> None:
        with _TRACER.span("acoustics"):
            for rank in self.ranks:
                self.work[rank].zero_accumulators()
            for _ in range(n_split):
                self.substep(dt_acoustic)
