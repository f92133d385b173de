"""D-grid shallow-water solver (the FORTRAN ``d_sw``): the Lagrangian
dynamics of one acoustic substep.

Contains the motifs the paper discusses: vector-invariant momentum update
(vorticity + kinetic-energy gradient + pressure gradient), Smagorinsky
diffusion with the power-operator kernel of Sec. VI-C1, divergence (del-2)
damping, and horizontal regions applying one-sided differences at tile
edges (Sec. IV-B).
"""

from __future__ import annotations

import numpy as np

from repro.dsl import (
    BACKWARD,
    FORWARD,
    Field,
    FieldIJ,
    PARALLEL,
    computation,
    horizontal,
    i_end,
    i_start,
    interval,
    j_end,
    j_start,
    region,
    stencil,
)
from repro.fv3 import constants
from repro.fv3.constants import GRAV, RDGAS
from repro.fv3.stencils.basic_ops import copy_stencil, flux_divergence
from repro.fv3.stencils.delnflux import (
    add_flux_divergence,
    del2_flux_x,
    del2_flux_y,
)
from repro.orchestration import orchestrate, transient


@stencil
def vorticity_kinetic_energy(
    u: Field, v: Field, rdx: FieldIJ, rdy: FieldIJ, vort: Field, ke: Field
):
    """Relative vorticity and kinetic energy at cell centers.

    Centered differences in the interior; one-sided differences on the
    tile edges where the across-edge neighbor lives in a rotated frame
    (the cubed-sphere edge corrections of Sec. IV-B).
    """
    with computation(PARALLEL), interval(...):
        vort = 0.5 * (v[1, 0, 0] - v[-1, 0, 0]) * rdx - 0.5 * (
            u[0, 1, 0] - u[0, -1, 0]
        ) * rdy
        with horizontal(region[i_start, :]):
            vort = (v[1, 0, 0] - v) * rdx - 0.5 * (
                u[0, 1, 0] - u[0, -1, 0]
            ) * rdy
        with horizontal(region[i_end, :]):
            vort = (v - v[-1, 0, 0]) * rdx - 0.5 * (
                u[0, 1, 0] - u[0, -1, 0]
            ) * rdy
        with horizontal(region[:, j_start]):
            vort = 0.5 * (v[1, 0, 0] - v[-1, 0, 0]) * rdx - (
                u[0, 1, 0] - u
            ) * rdy
        with horizontal(region[:, j_end]):
            vort = 0.5 * (v[1, 0, 0] - v[-1, 0, 0]) * rdx - (
                u - u[0, -1, 0]
            ) * rdy
        ke = 0.5 * (u * u + v * v)


@stencil
def pressure_logs(delp: Field, lnp: Field, ptop: float):
    """Layer-mid log pressure from cumulative thickness (FORWARD solve)."""
    with computation(FORWARD):
        with interval(0, 1):
            lnp = log(ptop + 0.5 * delp)  # noqa: F821 - DSL builtin
            pe = ptop + delp
        with interval(1, None):
            lnp = log(pe[0, 0, -1] + 0.5 * delp)  # noqa: F821
            pe = pe[0, 0, -1] + delp


@stencil
def smagorinsky_diffusion(delpc: Field, vort: Field, smag: Field, dt: float):
    """The Sec. VI-C1 case-study kernel, verbatim power-operator form:

        vort = dt * (delpc**2.0 + vort**2.0) ** 0.5
    """
    with computation(PARALLEL), interval(...):
        smag = dt * (delpc**2.0 + vort**2.0) ** 0.5


@stencil
def geopotential(delz: Field, gz: Field):
    """Layer-mid geopotential by integrating δz upward.

    k increases downward; δz is negative (FV3 convention), the surface is
    below the last level.
    """
    with computation(BACKWARD):
        with interval(-1, None):
            gz = -0.5 * delz * GRAV
        with interval(0, -1):
            gz = gz[0, 0, 1] - 0.5 * GRAV * (delz + delz[0, 0, 1])


@stencil
def momentum_update(
    u: Field,
    v: Field,
    vort: Field,
    ke: Field,
    gz: Field,
    lnp: Field,
    pt: Field,
    f_cor: FieldIJ,
    rdx: FieldIJ,
    rdy: FieldIJ,
    dt: float,
):
    """Vector-invariant momentum update:

    du/dt = +(f+ζ)·v − ∂x(KE + gz) − R·T·∂x(ln p)
    dv/dt = −(f+ζ)·u − ∂y(KE + gz) − R·T·∂y(ln p)
    """
    with computation(PARALLEL), interval(...):
        energy = ke + gz
        px = (
            0.5 * (energy[1, 0, 0] - energy[-1, 0, 0])
            + RDGAS * pt * 0.5 * (lnp[1, 0, 0] - lnp[-1, 0, 0])
        ) * rdx
        py = (
            0.5 * (energy[0, 1, 0] - energy[0, -1, 0])
            + RDGAS * pt * 0.5 * (lnp[0, 1, 0] - lnp[0, -1, 0])
        ) * rdy
        u_new = u + dt * ((f_cor + vort) * v - px)
        v_new = v + dt * (-(f_cor + vort) * u - py)
        u = u_new
        v = v_new


@stencil
def apply_wind_damping(u: Field, v: Field, smag: Field, damp: float):
    """Smagorinsky damping applied implicitly (unconditionally stable)."""
    with computation(PARALLEL), interval(...):
        coeff = damp * smag
        u = u / (1.0 + coeff)
        v = v / (1.0 + coeff)


@stencil
def update_mass_weighted(
    q: Field,
    delp_old: Field,
    delp_new: Field,
    fq_x: Field,
    fq_y: Field,
    rarea: FieldIJ,
):
    """q_new = (q·δp_old + div(q̂ · mass flux)) / δp_new."""
    with computation(PARALLEL), interval(...):
        q = (
            q * delp_old
            + (fq_x - fq_x[1, 0, 0] + fq_y - fq_y[0, 1, 0]) * rarea
        ) / delp_new


class DGridSolver:
    """One rank's d_sw module (paper OOP design, Sec. IV-A).

    Its ten work fields are transient declarations. Each of the three
    programs writes what it reads of them (``fx2``/``fy2`` are declared
    once and used by both ``transport_fields`` and ``damp_fields``, each
    of which gets its own buffer per call); ``fx``/``fy`` are handed down
    into the inlined transport operator and stay one container there.
    """

    def __init__(self, grid, transport, config, bounds=None,
                 n_halo=constants.N_HALO):
        self.grid = grid
        self.transport = transport  # FiniteVolumeTransport
        self.config = config
        self.h = n_halo
        self.nx = grid.shape[0] - 2 * n_halo
        self.ny = grid.shape[1] - 2 * n_halo
        nk = config.npz
        shape = (grid.shape[0], grid.shape[1], nk)
        self.vort = transient(shape)
        self.ke = transient(shape)
        self.smag = transient(shape)
        self.gz = transient(shape)
        self.lnp = transient(shape)
        self.fx = transient(shape)
        self.fy = transient(shape)
        self.fx2 = transient(shape)
        self.fy2 = transient(shape)
        self.delp_old = transient(shape)
        self.ptop = 100.0
        self.bounds = bounds

    @orchestrate
    def momentum(
        self,
        u: np.ndarray,
        v: np.ndarray,
        pt: np.ndarray,
        delp: np.ndarray,
        delz: np.ndarray,
        delpc: np.ndarray,
        dt: float,
    ):
        """Vorticity/KE/pressure-gradient/Smagorinsky wind update."""
        h, nx, ny, nk = self.h, self.nx, self.ny, self.config.npz
        g = self.grid
        # diagnostics on a one-cell-extended domain so the momentum update
        # covers the whole interior
        extended = dict(origin=(h - 1, h - 1, 0), domain=(nx + 2, ny + 2, nk))
        interior = dict(origin=(h, h, 0), domain=(nx, ny, nk))
        vorticity_kinetic_energy(
            u, v, g.rdx, g.rdy, self.vort, self.ke,
            bounds=self.bounds, **extended,
        )
        pressure_logs(delp, self.lnp, self.ptop, **extended)
        geopotential(delz, self.gz, **extended)
        momentum_update(
            u, v, self.vort, self.ke, self.gz, self.lnp, pt,
            g.f_cor, g.rdx, g.rdy, dt, **interior,
        )
        smagorinsky_diffusion(
            delpc, self.vort, self.smag, dt * self.config.smag_coeff,
            **interior,
        )
        apply_wind_damping(u, v, self.smag, 1.0, **interior)

    @orchestrate
    def transport_fields(
        self,
        delp: np.ndarray,
        pt: np.ndarray,
        w: np.ndarray,
        crx: np.ndarray,
        cry: np.ndarray,
        xfx: np.ndarray,
        yfx: np.ndarray,
    ):
        """Advance δp, pt and w with the finite-volume transport."""
        h, nx, ny, nk = self.h, self.nx, self.ny, self.config.npz
        interior = dict(origin=(h, h, 0), domain=(nx, ny, nk))
        copy_stencil(delp, self.delp_old, origin=(0, 0, 0),
                     domain=(nx + 2 * h, ny + 2 * h, nk))
        # δp fluxes and update
        self.transport(delp, crx, cry, xfx, yfx, self.fx, self.fy)
        flux_divergence(delp, self.fx, self.fy, self.grid.rarea, **interior)
        # mass-weighted scalars ride the δp mass fluxes
        self.transport.mass_weighted(
            pt, crx, cry, xfx, yfx, self.fx, self.fy, self.fx2, self.fy2
        )
        update_mass_weighted(
            pt, self.delp_old, delp, self.fx2, self.fy2, self.grid.rarea,
            **interior,
        )
        self.transport.mass_weighted(
            w, crx, cry, xfx, yfx, self.fx, self.fy, self.fx2, self.fy2
        )
        update_mass_weighted(
            w, self.delp_old, delp, self.fx2, self.fy2, self.grid.rarea,
            **interior,
        )

    @orchestrate
    def damp_fields(self, delp: np.ndarray, pt: np.ndarray):
        """Divergence (del-2) damping of the transported fields."""
        h, nx, ny, nk = self.h, self.nx, self.ny, self.config.npz
        g = self.grid
        damp = self.config.d2_damp
        flux_domain = dict(origin=(h, h, 0), domain=(nx + 1, ny + 1, nk))
        interior = dict(origin=(h, h, 0), domain=(nx, ny, nk))
        del2_flux_x(delp, g.dy, g.rdx, self.fx2, damp, **flux_domain)
        del2_flux_y(delp, g.dx, g.rdy, self.fy2, damp, **flux_domain)
        add_flux_divergence(delp, self.fx2, self.fy2, g.rarea, **interior)
        del2_flux_x(pt, g.dy, g.rdx, self.fx2, damp, **flux_domain)
        del2_flux_y(pt, g.dx, g.rdy, self.fy2, damp, **flux_domain)
        add_flux_divergence(pt, self.fx2, self.fy2, g.rarea, **interior)
