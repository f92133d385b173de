"""Finite-volume transport (the FORTRAN ``fv_tp_2d``, Sec. VIII-C).

The 2D flux-form transport operator of Lin & Rood (1996) on the cubed
sphere: directionally-split PPM sweeps with constancy-preserving inner
(transverse) updates, reused across several components of the model
(Fig. 2). The module *declares* its intermediate fields on the class per
the paper's OOP design (Sec. IV-A) but does not allocate them: they are
transients of whichever program the operator is inlined into. Corner
fills run as automatic callbacks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dsl import Field, FieldIJ, PARALLEL, computation, interval, stencil
from repro.fv3 import constants
from repro.fv3.corners import fill_corners
from repro.fv3.stencils.xppm import xppm_flux
from repro.fv3.stencils.yppm import yppm_flux
from repro.orchestration import orchestrate, transient


@stencil
def transverse_update_y(
    q: Field, fy_v: Field, yfx: Field, rarea: FieldIJ, q_adv: Field
):
    """Half y-update in advective (constancy-preserving) form.

    ``fy_v`` is the reconstructed PPM interface value, ``yfx`` the area
    swept through the interface; for uniform q the correction term cancels
    the mass-flux divergence exactly.
    """
    with computation(PARALLEL), interval(...):
        q_adv = q + 0.5 * rarea * (
            fy_v * yfx
            - fy_v[0, 1, 0] * yfx[0, 1, 0]
            + q * (yfx[0, 1, 0] - yfx)
        )


@stencil
def transverse_update_x(
    q: Field, fx_v: Field, xfx: Field, rarea: FieldIJ, q_adv: Field
):
    with computation(PARALLEL), interval(...):
        q_adv = q + 0.5 * rarea * (
            fx_v * xfx
            - fx_v[1, 0, 0] * xfx[1, 0, 0]
            + q * (xfx[1, 0, 0] - xfx)
        )


@stencil
def scale_flux_x(fv: Field, xfx: Field, fx: Field):
    """Mass-weighted interface flux: swept area × reconstructed value."""
    with computation(PARALLEL), interval(...):
        fx = fv * xfx


@stencil
def scale_flux_y(fv: Field, yfx: Field, fy: Field):
    with computation(PARALLEL), interval(...):
        fy = fv * yfx


class FiniteVolumeTransport:
    """One fv_tp_2d operator bound to a rank's geometry.

    The six intermediates (interface values and advected fields of the
    inner and outer sweeps) are transient declarations: each sweep writes
    the sub-domain the next one reads, so no call starts from zeros and
    nothing survives the call.
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        nk: int,
        rarea: np.ndarray,
        corners: Sequence[str],
        n_halo: int = constants.N_HALO,
    ):
        h = n_halo
        self.nx, self.ny, self.nk, self.h = nx, ny, nk, h
        self.rarea = rarea
        self.corner_list = tuple(corners)
        shape = (nx + 2 * h, ny + 2 * h, nk)
        self.fy_v = transient(shape)  # inner y interface values
        self.fx_v = transient(shape)  # inner x interface values
        self.q_y = transient(shape)  # y-advected intermediate
        self.q_x = transient(shape)  # x-advected intermediate
        self.fxv2 = transient(shape)  # outer x interface values
        self.fyv2 = transient(shape)  # outer y interface values

    @orchestrate
    def __call__(
        self,
        q: np.ndarray,
        crx: np.ndarray,
        cry: np.ndarray,
        xfx: np.ndarray,
        yfx: np.ndarray,
        fx: np.ndarray,
        fy: np.ndarray,
    ):
        """Compute fluxes ``fx``/``fy`` at the west/south interfaces of
        the compute domain: the reconstructed interface value times the
        swept area ``xfx``/``yfx``.

        ``q`` must have valid halos; ``crx``/``xfx`` are interface Courant
        numbers / swept areas valid on the extended domain.
        """
        self.mass_weighted(q, crx, cry, xfx, yfx, xfx, yfx, fx, fy)

    @orchestrate
    def mass_weighted(
        self,
        q: np.ndarray,
        crx: np.ndarray,
        cry: np.ndarray,
        xfx: np.ndarray,
        yfx: np.ndarray,
        mfx: np.ndarray,
        mfy: np.ndarray,
        fx: np.ndarray,
        fy: np.ndarray,
    ):
        """Fluxes of a mass-weighted scalar: the reconstructed interface
        value rides the δp mass flux ``mfx``/``mfy`` (FV3's mfx/mfy inputs
        to fv_tp_2d); the transverse updates use the swept areas."""
        nx, ny, nk, h = self.nx, self.ny, self.nk, self.h
        # ---- inner y sweep on the full extended i range ----
        fill_corners(q, "y", self.corner_list)
        yppm_flux(
            q, cry, self.fy_v,
            origin=(0, h, 0), domain=(nx + 2 * h, ny + 1, nk),
        )
        transverse_update_y(
            q, self.fy_v, yfx, self.rarea, self.q_y,
            origin=(0, h, 0), domain=(nx + 2 * h, ny, nk),
        )
        # ---- inner x sweep on the full extended j range ----
        fill_corners(q, "x", self.corner_list)
        xppm_flux(
            q, crx, self.fx_v,
            origin=(h, 0, 0), domain=(nx + 1, ny + 2 * h, nk),
        )
        transverse_update_x(
            q, self.fx_v, xfx, self.rarea, self.q_x,
            origin=(h, 0, 0), domain=(nx, ny + 2 * h, nk),
        )
        # ---- outer fluxes from the advected intermediates ----
        xppm_flux(
            self.q_y, crx, self.fxv2,
            origin=(h, h, 0), domain=(nx + 1, ny, nk),
        )
        scale_flux_x(
            self.fxv2, mfx, fx, origin=(h, h, 0), domain=(nx + 1, ny, nk)
        )
        yppm_flux(
            self.q_x, cry, self.fyv2,
            origin=(h, h, 0), domain=(nx, ny + 1, nk),
        )
        scale_flux_y(
            self.fyv2, mfy, fy, origin=(h, h, 0), domain=(nx, ny + 1, nk)
        )
