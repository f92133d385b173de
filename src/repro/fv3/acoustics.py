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
protocol checker. A sub-step is two orchestrated programs: the Riemann
solve (step 2), and steps 4–6 as one program (:class:`AcousticSubstep`)
in which the scalar finish is a callback between c_sw and d_sw (paper
Sec. V-B) and the C-grid fields c_sw hands on are transients of the
program's slab. Which programs, and on what arguments, is written down
once (``AcousticDynamics.programs``) for the body to call and for
``DynamicalCore.prepare`` to bind ahead of the first step.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from repro.fv3 import constants
from repro.fv3.communicator import LocalComm
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.corners import rank_corners
from repro.fv3.grid import CubedSphereGrid
from repro.fv3.halo import HaloUpdater, RankHaloExchange
from repro.fv3.initial import RankFields
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.fv3.stencils.c_sw import CGridSolver
from repro.fv3.stencils.d_sw import DGridSolver
from repro.fv3.stencils.fvtp2d import FiniteVolumeTransport
from repro.fv3.stencils.riem_solver_c import RiemannSolverC
from repro.fv3.stencils.tracer2d import accumulate_fluxes
from repro.obs import tracer as _obs
from repro.orchestration import orchestrate, transient
from repro.runtime import ranks as _ranks

_TRACER = _obs.get_tracer()


def acoustic_comm_plan(halo: HaloUpdater | None = None):
    """The acoustic sub-step's communication schedule as a static
    :class:`repro.lint.plan_ir.CommPlan`.

    This is the declared contract the C3xx protocol rules verify: the
    split wind and scalar exchanges with their tag-slot bases, and the
    compute ops between them with read/write footprints taken from the
    real stencil extents, in ``_substep_rank``'s order (the scalars'
    finish is the sub-step program's callback). Message edges
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
    # reading the full wind halos (its other parameters are transients
    # of the sub-step program, not exchanged fields)
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
    """The Courant numbers and swept areas one rank's sub-steps add up for
    the tracer transport of the remapping step: the only step arrays the
    acoustic loop keeps between programs."""

    def __init__(self, nx, ny, nk, h):
        shape = (nx + 2 * h, ny + 2 * h, nk)
        self.crx_adv = np.zeros(shape)
        self.cry_adv = np.zeros(shape)
        self.xfx_adv = np.zeros(shape)
        self.yfx_adv = np.zeros(shape)

    def zero_accumulators(self):
        self.crx_adv[:] = 0.0
        self.cry_adv[:] = 0.0
        self.xfx_adv[:] = 0.0
        self.yfx_adv[:] = 0.0


class ScalarWindow:
    """One rank's exchange of the transported scalars while it is open:
    the rank body starts it before the sub-step program, the program's
    callback (:func:`finish_scalars`) finishes it."""

    def __init__(self, halo: HaloUpdater):
        self.halo = halo
        self.exchange: Optional[RankHaloExchange] = None


def finish_scalars(window: ScalarWindow, delp, pt, w) -> None:
    """The sub-step program's callback (paper Sec. V-B): finish the
    exchange ``window`` holds, which fills the halos of ``delp``, ``pt``
    and ``w``. It is handed the three arrays so that the program knows
    what it touches: a declared callback, no barrier to the transients."""
    exchange, window.exchange = window.exchange, None
    window.halo.finish_scalars(exchange)


class AcousticSubstep:
    """One rank's acoustic sub-step after the Riemann solve, as one
    program: c_sw, the scalar halo finish, the three d_sw programs
    (inlined) and the flux accumulation, in that order.

    The five C-grid fields c_sw hands to d_sw and to the accumulation are
    transient declarations: they live in the program's slab for one call
    and nowhere else. c_sw leaves the first column of the x-interface
    fields and the first row of the y-interface ones unwritten (no upwind
    cell), and the accumulation reads whole fields, so those four start
    at zero. The scalar exchange the rank body started is finished
    inside the program, between c_sw (which does not read the scalars)
    and d_sw (which does).
    """

    def __init__(self, c_sw: CGridSolver, d_sw: DGridSolver,
                 work: RankWorkspace, scalars: ScalarWindow, shape):
        self.c_sw = c_sw
        self.d_sw = d_sw
        self.work = work
        self.scalars = scalars
        self.shape = tuple(shape)
        self.crx = transient(shape, zeroed=True)
        self.cry = transient(shape, zeroed=True)
        self.xfx = transient(shape, zeroed=True)
        self.yfx = transient(shape, zeroed=True)
        self.delpc = transient(shape)

    @orchestrate
    def __call__(
        self,
        u: np.ndarray,
        v: np.ndarray,
        delp: np.ndarray,
        pt: np.ndarray,
        w: np.ndarray,
        delz: np.ndarray,
        dt: float,
    ):
        self.c_sw(
            u, v, self.crx, self.cry, self.xfx, self.yfx, self.delpc, dt
        )
        finish_scalars(self.scalars, delp, pt, w)
        self.d_sw.transport_fields(
            delp, pt, w, self.crx, self.cry, self.xfx, self.yfx
        )
        self.d_sw.momentum(u, v, pt, delp, delz, self.delpc, dt)
        self.d_sw.damp_fields(delp, pt)
        # this sub-step's share of what the tracer transport rides
        accumulate_fluxes(
            self.crx, self.cry, self.xfx, self.yfx,
            self.work.crx_adv, self.work.cry_adv,
            self.work.xfx_adv, self.work.yfx_adv,
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
        self.windows = per_rank(lambda rank: ScalarWindow(halo))
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
        shape = (nx + 2 * n_halo, ny + 2 * n_halo, nk)
        self.substeps = per_rank(lambda rank: AcousticSubstep(
            self.c_sw[rank], self.d_sw[rank], self.work[rank],
            self.windows[rank], shape,
        ))

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
        arguments, in call order: the Riemann solve, then c_sw, d_sw and
        the flux accumulation as one program (the program of a module
        object is its ``__call__``). The rank body calls these and
        ``DynamicalCore.prepare`` binds these, so what is compiled ahead
        is what runs."""
        s = self.states[rank]
        return (
            partial(self.riemann[rank].__call__,
                    s.w, s.delz, s.pt, s.delp, dt),
            partial(self.substeps[rank].__call__,
                    s.u, s.v, s.delp, s.pt, s.w, s.delz, dt),
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
        filled u/v halos, and the sub-step program finishes the scalars
        after it, before d_sw reads them.
        """
        riemann, substep = self.programs(rank, dt)
        halo, window = self.halo, self.windows[rank]
        hx = halo.start_vector(self._u, self._v, rank)
        riemann()
        window.exchange = halo.start_scalars(
            (self._delp, self._pt, self._w), rank, fslot_base=2
        )
        yield  # peers post both phase 0s
        halo.advance(hx)
        halo.advance(window.exchange)
        yield  # peers post both phase 1s
        halo.finish_vector(hx)
        # the scalars' messages are waited for out here, where the rank
        # holds no slab; the program writes them into the halos
        halo.receive(window.exchange)
        substep()  # c_sw, finish the scalars, d_sw, accumulate

    def run(self, dt_acoustic: float, n_split: int) -> None:
        with _TRACER.span("acoustics"):
            for rank in self.ranks:
                self.work[rank].zero_accumulators()
            for _ in range(n_split):
                self.substep(dt_acoustic)
