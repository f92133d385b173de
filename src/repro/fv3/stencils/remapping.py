"""Vertical Lagrangian-to-Eulerian remapping (the FORTRAN
``Lagrangian_to_Eulerian`` / ``map_single``, the green hexagon of Fig. 2).

The deformed Lagrangian layers (pressure thickness δp drifts during the
acoustic sub-steps) are conservatively remapped back to the reference
Eulerian coordinate pe2(k) = ptop + bk(k)·(ps − ptop), which follows the
column's new surface pressure so column mass is conserved by construction
(FV3's hybrid ak/bk coordinate).

This implementation assumes interface displacements of at most one layer
per remap step (a CFL-like condition satisfied by FV3's sub-stepping), so
each target layer overlaps only source layers k−1, k, k+1 and the remap
is expressible with constant offsets — a DSL concession analogous to
Sec. IV-D. Reconstruction is piecewise-constant (FV3 uses PPM vertically;
see DESIGN.md "Known simplifications").
"""

from __future__ import annotations

import numpy as np

from repro.dsl import (
    BACKWARD,
    FORWARD,
    Field,
    FieldK,
    PARALLEL,
    computation,
    interval,
    stencil,
)
from repro.fv3 import constants
from repro.fv3.constants import GRAV, RDGAS
from repro.orchestration import orchestrate, transient


@stencil
def interface_pressures(delp: Field, pe1: Field, ptop: float):
    """Source (Lagrangian) interface pressures: cumulative δp (FORWARD).

    ``pe1`` has nk+1 levels; level k is the top interface of layer k.
    """
    with computation(FORWARD):
        with interval(0, 1):
            pe1 = ptop
        with interval(1, None):
            pe1 = pe1[0, 0, -1] + delp[0, 0, -1]


@stencil
def target_levels(pe1: Field, pe2: Field, bk: FieldK, ptop: float):
    """Eulerian target interfaces following the new surface pressure.

    The surface pressure (bottom interface of pe1) is propagated upward
    by a BACKWARD solve.
    """
    with computation(BACKWARD):
        with interval(-1, None):
            ps = pe1
            pe2 = pe1
        with interval(0, -1):
            ps = ps[0, 0, 1]
            pe2 = ptop + bk * (ps - ptop)


@stencil
def remap_layer(q: Field, q_new: Field, pe1: Field, pe2: Field):
    """Conservative piecewise-constant remap with ±1-layer overlap.

    overlap(src) = max(0, min(pe1[src+1], pe2[k+1]) − max(pe1[src], pe2[k]))
    """
    with computation(PARALLEL):
        with interval(0, 1):
            ov0 = max(0.0, min(pe1[0, 0, 1], pe2[0, 0, 1]) - max(pe1, pe2))
            ov1 = max(
                0.0,
                min(pe1[0, 0, 2], pe2[0, 0, 1]) - max(pe1[0, 0, 1], pe2),
            )
            q_new = (ov0 * q + ov1 * q[0, 0, 1]) / (pe2[0, 0, 1] - pe2)
        with interval(1, -1):
            ovm = max(0.0, min(pe1, pe2[0, 0, 1]) - max(pe1[0, 0, -1], pe2))
            ov0 = max(0.0, min(pe1[0, 0, 1], pe2[0, 0, 1]) - max(pe1, pe2))
            ov1 = max(
                0.0,
                min(pe1[0, 0, 2], pe2[0, 0, 1]) - max(pe1[0, 0, 1], pe2),
            )
            q_new = (ovm * q[0, 0, -1] + ov0 * q + ov1 * q[0, 0, 1]) / (
                pe2[0, 0, 1] - pe2
            )
        with interval(-1, None):
            ovm = max(0.0, min(pe1, pe2[0, 0, 1]) - max(pe1[0, 0, -1], pe2))
            ov0 = max(0.0, min(pe1[0, 0, 1], pe2[0, 0, 1]) - max(pe1, pe2))
            q_new = (ovm * q[0, 0, -1] + ov0 * q) / (pe2[0, 0, 1] - pe2)


@stencil
def copy_back(q: Field, q_new: Field):
    with computation(PARALLEL), interval(...):
        q = q_new


@stencil
def install_target_delp(delp: Field, pe2: Field):
    with computation(PARALLEL), interval(...):
        delp = pe2[0, 0, 1] - pe2


@stencil
def hydrostatic_delz(pt: Field, delp: Field, pe2: Field, delz: Field):
    """Hydrostatic δz of the remapped column: −R·T·δp / (g·p_mid) with
    p_mid the mean of the layer's two target interfaces."""
    with computation(PARALLEL), interval(...):
        delz = -RDGAS * pt * delp / (GRAV * (0.5 * (pe2 + pe2[0, 0, 1])))


class LagrangianToEulerian:
    """One rank's vertical remapping module.

    One call is one program — levels, every remapped field, the new δp
    and the hydrostatic δz — so the interface pressures ``pe1``/``pe2``
    and the remap target ``q_new`` are its transients.
    """

    def __init__(self, nx, ny, nk, bk: np.ndarray, ptop: float = 100.0,
                 n_halo: int = constants.N_HALO):
        """``bk``: hybrid coefficients at interfaces, shape (nk+1,),
        monotone from 0 (top) to 1 (surface)."""
        self.nx, self.ny, self.nk, self.h = nx, ny, nk, n_halo
        self.ptop = ptop
        self.bk = np.ascontiguousarray(bk, dtype=float)
        shape2 = (nx + 2 * n_halo, ny + 2 * n_halo)
        self.pe1 = transient(shape2 + (nk + 1,))
        self.pe2 = transient(shape2 + (nk + 1,))
        self.q_new = transient(shape2 + (nk,))

    @orchestrate
    def __call__(
        self,
        delp: np.ndarray,
        pt: np.ndarray,
        delz: np.ndarray,
        fields: list,
    ):
        """Remap every mass-weighted field of ``fields`` (a list that
        keeps its identity between calls; it contains ``pt``) from the
        deformed coordinate ``delp`` describes to the target one, install
        the target thicknesses as the new δp and recompute δz
        hydrostatically from the remapped temperature (compute domain
        only: the levels are computed there)."""
        h, nx, ny, nk = self.h, self.nx, self.ny, self.nk
        iface = dict(origin=(h, h, 0), domain=(nx, ny, nk + 1))
        interior = dict(origin=(h, h, 0), domain=(nx, ny, nk))
        interface_pressures(delp, self.pe1, self.ptop, **iface)
        target_levels(self.pe1, self.pe2, self.bk, self.ptop, **iface)
        for q in fields:
            remap_layer(q, self.q_new, self.pe1, self.pe2, **interior)
            copy_back(q, self.q_new, **interior)
        install_target_delp(delp, self.pe2, **interior)
        hydrostatic_delz(pt, delp, self.pe2, delz, **interior)
