"""Sub-cycled tracer advection (the FORTRAN ``tracer_2d``, the red hexagon
of Fig. 2): tracers are advected once per remapping step using the mass
fluxes and Courant numbers accumulated over the acoustic sub-steps."""

from __future__ import annotations

import numpy as np

from repro.dsl import Field, FieldIJ, PARALLEL, computation, interval, stencil
from repro.fv3 import constants
from repro.fv3.stencils.d_sw import update_mass_weighted
from repro.orchestration import orchestrate, transient


@stencil
def accumulate_fluxes(
    crx: Field, cry: Field, xfx: Field, yfx: Field,
    crx_adv: Field, cry_adv: Field, xfx_adv: Field, yfx_adv: Field,
    weight: float,
):
    """Accumulate acoustic-step Courant numbers and swept areas."""
    with computation(PARALLEL), interval(...):
        crx_adv = crx_adv + weight * crx
        cry_adv = cry_adv + weight * cry
        xfx_adv = xfx_adv + weight * xfx
        yfx_adv = yfx_adv + weight * yfx


@stencil
def transported_delp(
    delp_old: Field, fx: Field, fy: Field, rarea: FieldIJ, delp_tr: Field
):
    """δp after the accumulated transport — the consistent denominator of
    the tracer update (uniform tracers stay exactly uniform)."""
    with computation(PARALLEL), interval(...):
        delp_tr = delp_old + (fx - fx[1, 0, 0] + fy - fy[0, 1, 0]) * rarea


class TracerAdvection:
    """Advects all tracer species with the accumulated transport.

    One call is one program: the δp mass fluxes of the accumulated motion
    and the consistent post-transport δp are computed once and every
    species rides them, so the five work fields are transients of that
    program (``mfx``/``mfy``/``delp_tr`` live across all species,
    ``fx``/``fy`` are rewritten per species).
    """

    def __init__(self, transport, rarea, nx, ny, nk,
                 n_halo=constants.N_HALO):
        self.transport = transport  # FiniteVolumeTransport
        self.rarea = rarea
        self.nx, self.ny, self.nk, self.h = nx, ny, nk, n_halo
        shape = (nx + 2 * n_halo, ny + 2 * n_halo, nk)
        self.fx = transient(shape)
        self.fy = transient(shape)
        self.mfx = transient(shape)
        self.mfy = transient(shape)
        self.delp_tr = transient(shape)

    @orchestrate
    def __call__(
        self,
        tracers: list,
        delp_old: np.ndarray,
        crx_adv: np.ndarray,
        cry_adv: np.ndarray,
        xfx_adv: np.ndarray,
        yfx_adv: np.ndarray,
    ):
        """Advect every tracer of ``tracers`` (a list that keeps its
        identity between calls) with the accumulated mass transport."""
        h, nx, ny, nk = self.h, self.nx, self.ny, self.nk
        interior = dict(origin=(h, h, 0), domain=(nx, ny, nk))
        # mass fluxes of the accumulated motion plus the consistent
        # post-transport δp (shared by all tracer species)
        self.transport(
            delp_old, crx_adv, cry_adv, xfx_adv, yfx_adv, self.mfx, self.mfy
        )
        transported_delp(
            delp_old, self.mfx, self.mfy, self.rarea, self.delp_tr,
            **interior,
        )
        for tracer in tracers:
            self.transport.mass_weighted(
                tracer, crx_adv, cry_adv, xfx_adv, yfx_adv,
                self.mfx, self.mfy, self.fx, self.fy,
            )
            update_mass_weighted(
                tracer, delp_old, self.delp_tr, self.fx, self.fy,
                self.rarea, **interior,
            )
