"""The dynamical core driver (Fig. 2): physics step → remapping loop →
acoustic loop, plus tracer advection and vertical remapping.

With a :class:`~repro.resilience.ResilienceConfig` attached, every
remapping step runs under a rollback/retry harness: the state is
snapshotted, the step advances, the state guard scans for blowup, and
any recoverable fault (guard trip under the ``rollback`` policy, halo
timeout, injected fault) restores the snapshot and re-advances — up to
a bounded retry budget. Because injected faults fire once per planned
occurrence and the model is deterministic, a recovered run finishes
bit-identical to a fault-free one.
"""

from __future__ import annotations

import pathlib
import warnings
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro import resilience as _resilience
from repro.fv3 import constants
from repro.fv3.acoustics import AcousticDynamics
from repro.fv3.communicator import LocalComm
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.corners import rank_corners
from repro.fv3.grid import CubedSphereGrid
from repro.fv3.halo import HaloUpdater
from repro.fv3.initial import RankFields, reference_coordinate
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.fv3.stencils.fvtp2d import FiniteVolumeTransport
from repro.fv3.stencils.remapping import LagrangianToEulerian
from repro.fv3.stencils.tracer2d import TracerAdvection
from repro.obs import tracer as _obs
from repro.orchestration.program import stand_in, swap_landed
from repro.runtime import jit as _jit
from repro.runtime import ranks as _ranks
from repro.runtime.pool import current, get_pool
from repro.resilience import (
    GuardError,
    GuardWarning,
    RecoverableFault,
    ResilienceConfig,
    RetriesExhaustedError,
    chaos as _chaos,
)

if TYPE_CHECKING:
    from repro.resilience.guards import StateGuard

_TRACER = _obs.get_tracer()


def tracer_comm_plan(halo: HaloUpdater | None = None):
    """The tracer advection's communication schedule as a static
    :class:`repro.lint.plan_ir.CommPlan` (``_advect_tracers_rank``): one
    exchange of δp at step start and every tracer, finished before the
    advection reads their halos. Message edges come from
    ``halo.comm_schedule()`` (a default 6-rank decomposition when no
    updater is passed)."""
    from repro.lint import plan_ir

    if halo is None:
        halo = HaloUpdater(CubedSpherePartitioner(12, 1))
    fields = ("delp_start", "tracers")
    tracers = plan_ir.ExchangeDecl("tracers", fields, fslot_base=0)
    advection = plan_ir.ComputeOp(
        "tracer_advection",
        reads={f: plan_ir.halo_extent(halo.n_halo) for f in fields},
        writes={"tracers": plan_ir.halo_extent(0)},
    )
    return plan_ir.CommPlan.spmd(
        name="dyncore.tracer_advection",
        n_ranks=halo.partitioner.total_ranks,
        exchanges=(tracers,),
        # every part of the advection reads the halos the exchange
        # fills, so it has no work for a window: a whole exchange (its
        # two phases exposed)
        program=(plan_ir.ExchangeOp("tracers"), advection),
        edges=halo.comm_schedule(),
    )


def build_comm_plans():
    """Discovery hook for ``python -m repro.lint --comm``: the tracer
    exchange on the default 6-rank decomposition."""
    return [tracer_comm_plan()]


class DynamicalCore:
    """The Python FV3 dynamical core on simulated ranks.

    Owns per-rank state, grids and module instances; ``step_dynamics``
    advances one physics time step through ``k_split`` remapping sub-steps
    of ``n_split`` acoustic sub-steps each (Sec. II), four orchestrated
    programs per rank (:meth:`step_programs`). The modules and work
    arrays are built by :meth:`prepare`, which the first step calls, and
    dropped by :meth:`release`.

    The core holds the ranks its communicator owns (``comm.owned_ranks``,
    all of them by default): a rank worker process passes one endpoint of
    a shared mailbox and gets grids, states, workspaces and modules for
    its block only, the rest of the sphere being reached through the halo
    updater. ``init`` is called for the held ranks in rank order; the
    ``rank_*`` diagnostics work on any held rank, the global folds
    (``global_integral``, ``state_summary``, …) and ``resilience=`` need
    every rank.
    """

    def __init__(
        self,
        config: DynamicalCoreConfig,
        *,
        init=None,
        resilience: Optional[ResilienceConfig] = None,
        executor: Optional[_ranks.RankExecutor] = None,
        grids: Optional[List[CubedSphereGrid]] = None,
        comm: Optional[LocalComm] = None,
    ):
        if init is None:
            # the default workload is the registered baroclinic-wave
            # scenario (imported lazily: scenarios ← fv3 is the stable
            # direction, dyncore → scenarios only for this default)
            from repro.scenarios import get_scenario

            init = get_scenario("baroclinic_wave").initializer()
        self.config = config
        self.h = n_halo = constants.N_HALO
        self.partitioner = CubedSpherePartitioner(config.npx, config.layout)
        # ``comm`` is a LocalComm over either mailbox store: in-process
        # (the default) or the shared-memory table a rank worker process
        # is attached to — the halo updater never knows which
        self.halo = HaloUpdater(self.partitioner, n_halo=n_halo, comm=comm)
        # the rank executor schedules the per-rank SPMD bodies; the
        # default runs them in lockstep on this thread
        self.executor = executor if executor is not None \
            else _ranks.RankExecutor()
        # the ranks this core builds and steps: the communicator's (all
        # of them, unless it is one endpoint of a shared mailbox). Every
        # per-rank list below is indexed by rank and holds ``None`` for
        # a rank that runs elsewhere
        self.ranks = self.halo.comm.owned_ranks
        per_rank = self.halo.comm.per_rank
        if grids is None:
            grids = per_rank(lambda rank: CubedSphereGrid.build(
                self.partitioner, rank, n_halo=n_halo
            ))
        elif len(grids) != self.partitioner.total_ranks:
            raise ValueError(
                f"got {len(grids)} prebuilt grids for "
                f"{self.partitioner.total_ranks} ranks"
            )
        # grids are immutable geometry — ensemble members share them
        self.grids = grids
        self.states: List[RankFields] = per_rank(
            lambda rank: init(grids[rank], config)
        )
        # ``states`` keep their arrays for the life of the core (every
        # program is bound to them); the ensemble driver
        # (``repro.run.driver._load``) makes them one member's storage.
        #: the member record whose state ``states`` are, if any
        self.resident: Optional[object] = None
        #: state arrays no member owns, kept for the next eviction
        self.spare: Optional[List[RankFields]] = None
        #: what ``states`` were built from, until a step, a checkpoint
        #: restore or a member load changes them: ``build_core`` sets it
        #: so that a member drawn from the same stream takes these arrays
        #: instead of building its own
        self.initial: Optional[object] = None
        #: the step machinery, built by :meth:`prepare`: a core that is
        #: never stepped (the process executor's parent) has none
        self.acoustics: Optional[AcousticDynamics] = None
        self.remap: Optional[list] = None
        self.tracer_adv: Optional[list] = None
        self.time = 0.0
        self.step_count = 0
        self.resilience = resilience
        self._guard: Optional[StateGuard] = (
            _resilience.StateGuard(resilience.guard)
            if resilience is not None else None
        )
        self._prepared = False
        #: the programs that run NumPy plans until their C kernels land
        self._standins: list = []
        # (imported here: repro.run imports this module)
        from repro.run import metrics as _run_metrics

        _run_metrics.count_engine(self)

    # ------------------------------------------------------------------
    def _build_step_machinery(self) -> None:
        """The acoustic loop (workspaces and modules), the tracer
        transport, the vertical remap and the δp snapshot of every held
        rank, plus the per-field rank lists the halo API and the remap
        program are bound to. ``acoustics`` is set last: it says the
        rest is there."""
        config, n_halo, grids = self.config, self.h, self.grids
        per_rank = self.halo.comm.per_rank
        acoustics = AcousticDynamics(
            config, self.partitioner, grids, self.states, self.halo,
            self.executor, n_halo=n_halo,
        )
        bk, ptop = reference_coordinate(config)
        nx, ny, nk = self.partitioner.nx, self.partitioner.ny, config.npz
        self.remap = per_rank(lambda rank: LagrangianToEulerian(
            nx, ny, nk, bk, ptop, n_halo=n_halo
        ))
        self.tracer_adv = per_rank(lambda rank: TracerAdvection(
            acoustics.transports[rank], grids[rank].rarea,
            nx, ny, nk, n_halo=n_halo,
        ))
        self._delp_start = per_rank(
            lambda rank: np.zeros_like(self.states[rank].delp)
        )
        # stable per-tracer rank lists for the split halo API
        self._tracer_fields = [
            per_rank(lambda rank: self.states[rank].tracers[tr])
            for tr in range(config.n_tracers)
        ]
        # stable per-rank lists of everything the vertical remap moves
        # (the remap program is bound to the list, not to a copy of it)
        def remapped(rank):
            s = self.states[rank]
            return [s.pt, s.u, s.v, s.w, *s.tracers]

        self._remapped_fields = per_rank(remapped)
        self.acoustics = acoustics

    def release(self) -> None:
        """Drop what :meth:`_build_step_machinery` built: the modules,
        their workspaces and accumulators, the δp snapshot, the rank
        lists the programs are bound to — and with the modules every
        binding of their programs. States, grids and the halo updater
        stay. A core that steps again prepares again, from the caches:
        its programs are bound, not traced."""
        self.acoustics = self.remap = self.tracer_adv = None
        self._delp_start = self._tracer_fields = None
        self._remapped_fields = None
        self._standins = []
        self._prepared = False

    def prepare(self) -> None:
        """Build the step machinery, then bind every orchestrated program
        of every held rank to the arguments a step calls it on, inside
        one ``jit.batch()``: each is traced (or matched to a published
        template) and lowered, and the kernels nobody has built yet — of
        all of them together — go to the C compiler once, in the
        background. Nothing is executed. A program whose kernels that
        batch handed over runs its NumPy plan until they land
        (:func:`~repro.orchestration.program.stand_in`): every step
        boundary until then calls this again, which switches the
        programs whose kernels have landed to C
        (:func:`~repro.orchestration.program.swap_landed`). Every
        compute slot's slab holds the widest plan of either kind and
        every binding, stand-in and C, has met each slab
        (``BoundPlan.meet``), so a step allocates nothing and checks no
        argument. The first step does this before anything else; an
        ahead-of-time build, and a caller that inspects the modules
        before stepping, call it directly. Done once per core (a primed
        one has nothing to switch); a failed build is tried again."""
        if self._prepared:
            return
        if self._standins:
            self._standins = swap_landed(self._standins)
            self._prepared = not self._standins
            return
        if self.acoustics is None:
            self._build_step_machinery()
        with _TRACER.span("dyncore.prepare"):
            with _jit.batch(background=True) as handed:
                bound = [call.func.bind(*call.args) for r in self.ranks
                         for call, _ in self.step_programs(r)]
            self._standins = stand_in(bound, handed)
            calls = [binding.call for binding in bound] + [
                target for standin in self._standins
                for _, _, target in standin.swaps
            ]
            nbytes = max((c.plan.runtime_bytes for c in calls), default=0)
            with self.executor.idle_scratch() as workers:
                for slab in [worker.reserve(nbytes) for worker in workers]:
                    for call in calls:
                        call.meet(slab)
        self._prepared = not self._standins

    def step_programs(self, rank: int) -> List[Tuple[partial, int]]:
        """What one step of rank ``rank`` runs: each orchestrated program
        on its arguments with the number of times a step calls it, in
        call order — the two programs of an acoustic sub-step (the
        Riemann solve; c_sw, d_sw and the flux accumulation)
        ``k_split * n_split`` times, the tracer advection and the
        vertical remap ``k_split`` times: four per rank. :meth:`prepare`
        binds these and :meth:`step_graphs` models them. Needs the step
        machinery."""
        cfg = self.config
        substeps = cfg.k_split * cfg.n_split
        return [
            *((call, substeps)
              for call in self.acoustics.programs(rank, cfg.dt_acoustic)),
            (self._tracer_program(rank), cfg.k_split),
            (self._remap_program(rank), cfg.k_split),
        ]

    def step_graphs(self) -> list:
        """The SDFGs of the first held rank's step, for the Fig. 7
        pipeline and the performance model: per program of
        :meth:`step_programs`, a private copy of the SDFG it runs, its
        states inside a counted loop of its calls per step. Transforming
        a copy leaves the program that runs untouched (``SDFG.copy``
        duplicates every kernel)."""
        self.prepare()
        graphs = []
        for call, calls in self.step_programs(self.ranks[0]):
            call.func.bind(*call.args)  # its binding for these arguments
            sdfg = call.func.sdfg.copy()
            sdfg.add_loop(0, len(sdfg.states) - 1, calls, label="step")
            graphs.append(sdfg)
        return graphs

    def step_dynamics(self) -> None:
        """Advance the model by one physics time step (Fig. 2 outer box).

        Without a resilience config this is the original straight-line
        path — no snapshots, no guard scans, zero overhead. The step keeps
        the pages of its scratch: the caller that steps decides when they
        go back (:meth:`_release_step_scratch`; ``EnsembleDriver`` does
        it once per call of its ``step``/``step_selected``).
        """
        cfg = self.config
        self.initial = None
        with _TRACER.span("dyncore.step"):
            if self.resilience is None:
                for _ in range(cfg.k_split):
                    self._remapping_step(cfg.dt_remap)
            else:
                _chaos.set_step(self.step_count)
                for _ in range(cfg.k_split):
                    self._guarded_remapping_step(cfg.dt_remap)
        self.time += cfg.dt_atmos
        self.step_count += 1
        self._maybe_periodic_checkpoint()

    def _release_step_scratch(self) -> None:
        """Give the kernel back the pages of everything that carries no
        value into the next step: the accumulators and the δp snapshot
        of every held rank (zeroed and copied before they are read) and
        the slabs of the executor's slots and of this thread. Arrays and
        slabs stay where they are, so every program binding stays valid
        (``BufferPool.trim``)."""
        arrays = []
        if self.acoustics is not None:
            for r in self.ranks:
                arrays += self.acoustics.work[r].accumulators()
                arrays.append(self._delp_start[r])
        with self.executor.idle_scratch() as workers:
            get_pool().trim(*arrays, workers=(*workers, current()))

    def _guarded_remapping_step(self, dt_remap: float) -> None:
        """One remapping step under the rollback/retry harness."""
        res = self.resilience
        snapshot = _resilience.Snapshot.capture(
            self.states, self.time, self.step_count
        )
        attempt = 0
        while True:
            failure: Optional[BaseException] = None
            try:
                self._remapping_step(dt_remap)
                violations = self._guard.check_states(
                    self.states, step=self.step_count
                )
                if violations:
                    _resilience.record("guard_trips")
                    policy = res.guard.policy
                    if policy == "warn":
                        warnings.warn(
                            str(GuardError(violations)), GuardWarning,
                            stacklevel=3,
                        )
                    elif policy == "raise":
                        # GuardError is not a RecoverableFault, so it
                        # escapes the retry loop and fails the run
                        raise GuardError(violations)
                    else:  # rollback
                        failure = GuardError(violations)
            except RecoverableFault as exc:
                failure = exc
            if failure is None:
                return
            attempt += 1
            _resilience.record("retries")
            if attempt > res.max_retries:
                raise RetriesExhaustedError(
                    self.step_count, attempt - 1, failure
                ) from failure
            with _TRACER.span("dyncore.rollback"):
                _resilience.record("rollbacks")
                snapshot.restore(self.states)
                self.time = snapshot.time

    # ------------------------------------------------------------------
    # checkpoint/restart
    # ------------------------------------------------------------------
    def save_checkpoint(self, path=None) -> pathlib.Path:
        """Write a versioned on-disk checkpoint (see
        :mod:`repro.resilience.checkpoint`); returns the written path."""
        if path is None:
            res = self.resilience
            if res is None or not res.checkpoint_dir:
                raise ValueError(
                    "no path given and no checkpoint_dir configured"
                )
            path = (
                pathlib.Path(res.checkpoint_dir)
                / f"ckpt_step{self.step_count:06d}.npz"
            )
        written = _resilience.save_checkpoint(
            path, self.states, self.time, self.step_count,
            extra_meta={"npx": self.config.npx, "npz": self.config.npz,
                        "layout": self.config.layout},
        )
        _resilience.record("checkpoints_saved")
        return written

    def _maybe_periodic_checkpoint(self) -> None:
        res = self.resilience
        if (
            res is not None
            and res.checkpoint_every > 0
            and self.step_count % res.checkpoint_every == 0
        ):
            self.save_checkpoint()

    def finalize(self, strict: bool = False):
        """Teardown: run the halo updater's drain check for orphaned
        messages; returns the orphaned (source, dest, tag) triples."""
        return self.halo.finalize(strict=strict)

    def _remapping_step(self, dt_remap: float) -> None:
        cfg = self.config
        run = self.executor.run
        # a no-op after the first time; here, so that a build that fails
        # is a fault of the step like any other (rolled back and retried
        # under ``resilience=``)
        self.prepare()
        # snapshot δp for the tracer transport (consistent bracketing)
        for r in self.ranks:
            self._delp_start[r][:] = self.states[r].delp
        try:
            # acoustic loop (accumulates tracer Courant numbers/mass
            # fluxes)
            self.acoustics.run(cfg.dt_acoustic, cfg.n_split)
            # sub-cycled tracer advection with the accumulated transport
            with _TRACER.span("dyncore.tracer_advection"):
                run(self._advect_tracers_rank, self.ranks,
                    label="tracer_advection")
            # Lagrangian-to-Eulerian vertical remap
            with _TRACER.span("dyncore.vertical_remap"):
                run(self._vertical_remap_rank, self.ranks,
                    label="vertical_remap")
        except BaseException:
            # a section that failed between a start_* and its finish_*
            # leaves its peers' messages in flight: drop them (this
            # endpoint's ranks only) so the next step, or the rollback's
            # re-advance, can repost every send cleanly
            self.halo.comm.drain()
            raise

    def _tracer_program(self, r: int) -> partial:
        """The tracer advection of rank ``r`` on its arguments (what the
        rank body calls and ``prepare`` binds)."""
        work = self.acoustics.work[r]
        return partial(
            self.tracer_adv[r].__call__,
            self.states[r].tracers, self._delp_start[r],
            work.crx_adv, work.cry_adv, work.xfx_adv, work.yfx_adv,
        )

    def _remap_program(self, r: int) -> partial:
        """The vertical remap of rank ``r`` on its arguments."""
        state = self.states[r]
        return partial(
            self.remap[r].__call__,
            state.delp, state.pt, state.delz, self._remapped_fields[r],
        )

    def _advect_tracers_rank(self, r: int):
        """SPMD body: one halo exchange of δp_start plus every tracer
        (one message per neighbor and phase carries them all), then this
        rank's advection (the schedule :func:`tracer_comm_plan`
        declares)."""
        halo = self.halo
        hx = halo.start_scalars([self._delp_start] + self._tracer_fields, r)
        yield  # peers post phase 0
        halo.advance(hx)
        yield  # peers post phase 1
        halo.finish_scalars(hx)
        self._tracer_program(r)()

    def _vertical_remap_rank(self, r: int) -> None:
        self._remap_program(r)()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    # Each global diagnostic folds a per-rank summand in rank order; the
    # summands are methods so that a rank worker process, which holds
    # only its own ranks, reports exactly the term the fold would add.
    def rank_integral(self, rank: int, attr: str = "delp") -> float:
        h = self.h
        field = getattr(self.states[rank], attr)
        area = self.grids[rank].area[h:-h, h:-h]
        return float(np.sum(field[h:-h, h:-h] * area[..., None]))

    def rank_tracer_integral(self, rank: int, index: int = 0) -> float:
        h = self.h
        s = self.states[rank]
        area = self.grids[rank].area[h:-h, h:-h]
        return float(
            np.sum(
                s.tracers[index][h:-h, h:-h]
                * s.delp[h:-h, h:-h]
                * area[..., None]
            )
        )

    def rank_max_wind(self, rank: int) -> float:
        h = self.h
        s = self.states[rank]
        return float(np.max(np.hypot(s.u[h:-h, h:-h], s.v[h:-h, h:-h])))

    def rank_max_w(self, rank: int) -> float:
        h = self.h
        return float(np.max(np.abs(self.states[rank].w[h:-h, h:-h])))

    def global_integral(self, attr: str = "delp") -> float:
        """Σ field·area over the whole sphere (mass proxy for δp)."""
        total = 0.0
        for r in range(self.partitioner.total_ranks):
            total += self.rank_integral(r, attr)
        return total

    def tracer_integral(self, index: int = 0) -> float:
        """Σ tracer·δp·area (the conserved tracer mass)."""
        total = 0.0
        for r in range(self.partitioner.total_ranks):
            total += self.rank_tracer_integral(r, index)
        return total

    def max_wind(self) -> float:
        return max(
            self.rank_max_wind(r)
            for r in range(self.partitioner.total_ranks)
        )

    def state_summary(self) -> Dict[str, float]:
        return {
            "time": self.time,
            "mass": self.global_integral("delp"),
            "max_wind": self.max_wind(),
            "max_w": max(
                self.rank_max_w(r)
                for r in range(self.partitioner.total_ranks)
            ),
        }
