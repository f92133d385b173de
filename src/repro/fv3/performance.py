"""Single-rank whole-program orchestration of the dynamical core.

For performance engineering, the paper builds one SDFG spanning the entire
dynamical-core time step (Sec. V-B) and runs the optimization pipeline on
it. This module builds that graph for one rank: module calls are inlined,
the remapping and acoustic loops become SDFG loop regions, and the halo
exchanges appear as ``__pystate``-serialized callback nodes (communication
is overlapped/external in the paper's kernel analysis; the callbacks here
are local stand-ins that keep the graph structure and execution order).
"""

from __future__ import annotations

import numpy as np

from repro.fv3 import constants
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.corners import rank_corners
from repro.fv3.grid import CubedSphereGrid
from repro.fv3.initial import reference_coordinate
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.fv3.acoustics import RankWorkspace
from repro.fv3.stencils.c_sw import CGridSolver
from repro.fv3.stencils.d_sw import DGridSolver
from repro.fv3.stencils.fvtp2d import FiniteVolumeTransport
from repro.fv3.stencils.riem_solver_c import RiemannSolverC
from repro.fv3.stencils.remapping import LagrangianToEulerian
from repro.fv3.stencils.tracer2d import TracerAdvection, accumulate_fluxes
from repro.orchestration import orchestrate


def _local_halo_fill(*arrays) -> None:
    """Stand-in halo exchange for the single-rank performance graph.

    Extends the interior into the halo by edge replication so downstream
    stencils read finite values; on a real run this node is the
    nonblocking MPI exchange (Sec. IV-C).
    """
    h = constants.N_HALO
    for arr in arrays:
        arr[:h] = arr[h : h + 1]
        arr[-h:] = arr[-h - 1 : -h]
        arr[:, :h] = arr[:, h : h + 1]
        arr[:, -h:] = arr[:, -h - 1 : -h]


class SingleRankDynCore:
    """One rank's full time step as a single orchestrated program."""

    def __init__(self, config: DynamicalCoreConfig):
        if config.layout != 1:
            raise ValueError(
                "the single-rank performance graph uses layout=1 "
                "(one full tile per rank, the paper's 6-node case study)"
            )
        self.config = config
        self.h = constants.N_HALO
        self.partitioner = CubedSpherePartitioner(config.npx, 1)
        self.grid = CubedSphereGrid.build(self.partitioner, 0, self.h)
        from repro.scenarios.library import baroclinic_state

        self.state = baroclinic_state(self.grid, config)
        nx = ny = config.npx
        nk = config.npz
        self.work = RankWorkspace(nx, ny, nk, self.h)
        corners = rank_corners(self.partitioner, 0)
        self.transport = FiniteVolumeTransport(
            nx, ny, nk, self.grid.rarea, corners, n_halo=self.h
        )
        self.c_sw = CGridSolver(
            nx, ny, nk, self.grid.dx, self.grid.dy, self.grid.rarea,
            n_halo=self.h,
        )
        self.d_sw = DGridSolver(
            self.grid, self.transport, config,
            bounds=self.partitioner.bounds(0), n_halo=self.h,
        )
        self.riemann = RiemannSolverC(nx, ny, nk, n_halo=self.h)
        bk, ptop = reference_coordinate(config)
        self.remap = LagrangianToEulerian(nx, ny, nk, bk, ptop, n_halo=self.h)
        self.tracer_adv = TracerAdvection(
            self.transport, self.grid.rarea, nx, ny, nk, n_halo=self.h
        )
        self._delp_start = np.zeros_like(self.state.delp)
        self._remapped_fields = [
            self.state.pt, self.state.u, self.state.v, self.state.w,
            *self.state.tracers,
        ]
        self.n_split = config.n_split
        self.k_split = config.k_split
        self.nx, self.ny, self.nk = nx, ny, nk

    @orchestrate
    def step(self, dt_acoustic: float):
        """One full dynamical-core step (Fig. 2) on this rank."""
        for _ in range(self.k_split):
            snapshot_delp(
                self.state.delp, self._delp_start,
                origin=(0, 0, 0),
                domain=(self.nx + 6, self.ny + 6, self.nk),
            )
            for _ in range(self.n_split):
                _local_halo_fill(self.state.u, self.state.v)
                self.c_sw(
                    self.state.u, self.state.v,
                    self.work.crx, self.work.cry,
                    self.work.xfx, self.work.yfx,
                    self.work.delpc, dt_acoustic,
                )
                self.riemann(
                    self.state.w, self.state.delz, self.state.pt,
                    self.state.delp, dt_acoustic,
                )
                _local_halo_fill(
                    self.state.delp, self.state.pt, self.state.w
                )
                self.d_sw.transport_fields(
                    self.state.delp, self.state.pt, self.state.w,
                    self.work.crx, self.work.cry,
                    self.work.xfx, self.work.yfx,
                )
                self.d_sw.momentum(
                    self.state.u, self.state.v, self.state.pt,
                    self.state.delp, self.state.delz, self.work.delpc,
                    dt_acoustic,
                )
                self.d_sw.damp_fields(self.state.delp, self.state.pt)
                accumulate_fluxes(
                    self.work.crx, self.work.cry,
                    self.work.xfx, self.work.yfx,
                    self.work.crx_adv, self.work.cry_adv,
                    self.work.xfx_adv, self.work.yfx_adv,
                    1.0,
                    origin=(0, 0, 0),
                    domain=(self.nx + 6, self.ny + 6, self.nk),
                )
            _local_halo_fill(self._delp_start, self.state.tracers[0])
            self.tracer_adv(
                self.state.tracers, self._delp_start,
                self.work.crx_adv, self.work.cry_adv,
                self.work.xfx_adv, self.work.yfx_adv,
            )
            self.remap(
                self.state.delp, self.state.pt, self.state.delz,
                self._remapped_fields,
            )

    # ------------------------------------------------------------------
    def build_sdfg(self, dt_acoustic: float = None):
        """Build (and return) the whole-step SDFG."""
        dt = dt_acoustic or self.config.dt_acoustic
        program = self.step  # bound OrchestratedProgram
        program.build(dt)
        return program


from repro.dsl import Field, PARALLEL, computation, interval, stencil


@stencil
def snapshot_delp(delp: Field, delp_start: Field):
    with computation(PARALLEL), interval(...):
        delp_start = delp
