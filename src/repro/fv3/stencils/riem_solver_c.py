"""Nonhydrostatic vertical Riemann solver (the FORTRAN ``riem_solver_c``).

Solves for the nonhydrostatic terms of vertical velocity and pressure
perturbation (Sec. VIII-B) with a semi-implicit discretization of the
vertically propagating sound waves: an implicit column problem

    (I + c²Δt² L) w^{n+1} = w^n + Δt · b

with L the vertical Laplacian over the layer heights, solved by the
Thomas algorithm. Per the paper, the module "is divided into three GT4Py
stencils": coefficient precomputation, the tridiagonal solve (forward
elimination + back substitution), and the height/pressure update — of
which only the heights are kept: nothing here reads the diagnosed
pressure perturbation, so it is not computed.
"""

from __future__ import annotations

import numpy as np

from repro.dsl import (
    BACKWARD,
    FORWARD,
    Field,
    PARALLEL,
    computation,
    interval,
    stencil,
)
from repro.fv3 import constants
from repro.fv3.constants import GRAV, RDGAS, SOUND_SPEED
from repro.orchestration import orchestrate, transient


@stencil
def precompute_coefficients(
    delz: Field,
    pt: Field,
    w: Field,
    delp: Field,
    aa: Field,
    bb: Field,
    cc: Field,
    dd: Field,
    dt: float,
    ptop: float,
):
    """Tridiagonal coefficients and right-hand side.

    δz is negative; layer heights dz = −δz. The source term is the
    *nonhydrostatic imbalance*: g·(δz_hydro/δz − 1), which vanishes for a
    hydrostatically balanced column so the solver only responds to (and
    damps) vertically propagating acoustic/gravity disturbances.
    """
    with computation(FORWARD):
        with interval(0, 1):
            pmid = ptop + 0.5 * delp
            pcum = ptop + delp
        with interval(1, None):
            pmid = pcum[0, 0, -1] + 0.5 * delp
            pcum = pcum[0, 0, -1] + delp
    with computation(PARALLEL):
        with interval(...):
            dz_hydro = -RDGAS * pt * delp / (GRAV * pmid)
            buoy = GRAV * (dz_hydro / delz - 1.0)
            dd = w + dt * buoy
        with interval(0, 1):
            dz0 = -delz
            aa = 0.0
            cc = SOUND_SPEED * SOUND_SPEED * dt * dt / (
                dz0 * 0.5 * (dz0 - delz[0, 0, 1])
            )
            bb = 1.0 + cc
        with interval(1, -1):
            dzm = -delz
            aa = SOUND_SPEED * SOUND_SPEED * dt * dt / (
                dzm * 0.5 * (dzm - delz[0, 0, -1])
            )
            cc = SOUND_SPEED * SOUND_SPEED * dt * dt / (
                dzm * 0.5 * (dzm - delz[0, 0, 1])
            )
            bb = 1.0 + aa + cc
        with interval(-1, None):
            dzn = -delz
            aa = SOUND_SPEED * SOUND_SPEED * dt * dt / (
                dzn * 0.5 * (dzn - delz[0, 0, -1])
            )
            cc = 0.0
            bb = 1.0 + aa


@stencil
def tridiagonal_solve(
    aa: Field, bb: Field, cc: Field, dd: Field, w: Field, gam: Field
):
    """Thomas algorithm: forward elimination then back substitution."""
    with computation(FORWARD):
        with interval(0, 1):
            gam = -cc / bb
            w = dd / bb
        with interval(1, None):
            denom = bb + aa * gam[0, 0, -1]
            gam = -cc / denom
            w = (dd + aa * w[0, 0, -1]) / denom
    with computation(BACKWARD):
        with interval(0, -1):
            w = w - gam * w[0, 0, 1]


@stencil
def update_heights(w: Field, delz: Field, dt: float):
    """Advance δz with the implicit w."""
    with computation(PARALLEL), interval(0, -1):
        delz = delz - dt * (w[0, 0, 1] - w)


class RiemannSolverC:
    """One rank's riem_solver_c module.

    The tridiagonal coefficients, right-hand side and elimination factor
    are transients of the program: written on the compute domain by the
    first stencil, read there by the second, dead on return.
    """

    def __init__(self, nx, ny, nk, n_halo: int = constants.N_HALO):
        self.nx, self.ny, self.nk, self.h = nx, ny, nk, n_halo
        shape = (nx + 2 * n_halo, ny + 2 * n_halo, nk)
        self.aa = transient(shape)
        self.bb = transient(shape)
        self.cc = transient(shape)
        self.dd = transient(shape)
        self.gam = transient(shape)

    @orchestrate
    def __call__(
        self,
        w: np.ndarray,
        delz: np.ndarray,
        pt: np.ndarray,
        delp: np.ndarray,
        dt: float,
    ):
        h, nx, ny, nk = self.h, self.nx, self.ny, self.nk
        interior = dict(origin=(h, h, 0), domain=(nx, ny, nk))
        precompute_coefficients(
            delz, pt, w, delp, self.aa, self.bb, self.cc, self.dd,
            dt, 100.0, **interior,
        )
        tridiagonal_solve(
            self.aa, self.bb, self.cc, self.dd, w, self.gam, **interior
        )
        update_heights(w, delz, dt, **interior)
