"""Plain-NumPy reference implementations for stencil validation.

The paper validates every ported module against serialized data from the
FORTRAN model (Sec. IV-A: "independent standalone unit-tests for model
validation by comparing with the serialized reference up to a given
numerical precision"). Without the FORTRAN model, these straight-line
NumPy implementations — written independently of the DSL, loop/slice
style like the original FORTRAN — serve as the reference: every DSL
stencil must match them bit-for-bit.
"""

from __future__ import annotations

import numpy as np


def ppm_flux_x(q: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Reference PPM x-flux at interface i (between cells i-1 and i).

    q, cr: (nx, ny, nk) arrays where the flux is defined for
    i in [3, nx-2) (needs 3 upwind cells). Returns array of same shape
    with values outside that range unspecified (zeros).
    """
    nx = q.shape[0]
    flux = np.zeros_like(q)
    al = np.zeros_like(q)
    al[2:-1] = 7.0 / 12.0 * (q[1:-2] + q[2:-1]) - 1.0 / 12.0 * (
        q[:-3] + q[3:]
    )
    # clamp interfaces between adjacent means (Colella & Woodward)
    al[2:-1] = np.clip(
        al[2:-1],
        np.minimum(q[1:-2], q[2:-1]),
        np.maximum(q[1:-2], q[2:-1]),
    )
    bl = np.zeros_like(q)
    br = np.zeros_like(q)
    bl[2:-2] = al[2:-2] - q[2:-2]
    br[2:-2] = al[3:-1] - q[2:-2]
    extremum = bl * br >= 0.0
    da = br - bl
    a6 = -3.0 * (bl + br)
    over_l = da * a6 > da * da
    over_r = da * a6 < -(da * da)
    bl_lim = np.where(over_l, -2.0 * br, bl)
    br_lim = np.where(np.logical_and(over_r, ~over_l), -2.0 * bl, br)
    bl = np.where(extremum, 0.0, bl_lim)
    br = np.where(extremum, 0.0, br_lim)
    b0 = bl + br
    for i in range(3, nx - 2):
        c = cr[i]
        up = q[i - 1] + (1.0 - c) * (br[i - 1] - c * b0[i - 1])
        dn = q[i] + (1.0 + c) * (bl[i] + c * b0[i])
        flux[i] = np.where(c > 0.0, up, dn)
    return flux


def ppm_flux_y(q: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Reference PPM y-flux (transpose of the x version)."""
    return ppm_flux_x(
        q.swapaxes(0, 1), cr.swapaxes(0, 1)
    ).swapaxes(0, 1)


def thomas_tridiagonal(aa, bb, cc, dd):
    """Reference solve of (−aa·w[k−1] + bb·w[k] − cc·w[k+1]) = dd along the
    last axis, via scipy, column by column."""
    from scipy.linalg import solve_banded

    shape = dd.shape
    nk = shape[-1]
    out = np.zeros_like(dd)
    flat_a = aa.reshape(-1, nk)
    flat_b = bb.reshape(-1, nk)
    flat_c = cc.reshape(-1, nk)
    flat_d = dd.reshape(-1, nk)
    flat_o = out.reshape(-1, nk)
    for idx in range(flat_d.shape[0]):
        ab = np.zeros((3, nk))
        ab[0, 1:] = -flat_c[idx, :-1]  # super-diagonal
        ab[1, :] = flat_b[idx]
        ab[2, :-1] = -flat_a[idx, 1:]  # sub-diagonal
        flat_o[idx] = solve_banded((1, 1), ab, flat_d[idx])
    return out


def conservative_remap_1d(q, pe1, pe2):
    """Reference piecewise-constant conservative remap of one column.

    q: (nk,) source means; pe1, pe2: (nk+1,) source/target interfaces.
    General (no displacement limit): integrates exactly.
    """
    nk = len(q)
    out = np.zeros(nk)
    for k in range(nk):
        lo, hi = pe2[k], pe2[k + 1]
        acc = 0.0
        for s in range(nk):
            ov = max(0.0, min(pe1[s + 1], hi) - max(pe1[s], lo))
            acc += ov * q[s]
        out[k] = acc / (hi - lo)
    return out


def smagorinsky(delpc, vort, dt):
    """Reference Smagorinsky magnitude (the Sec. VI-C1 formula)."""
    return dt * np.sqrt(delpc**2 + vort**2)


def del2_diffusion_step(q, dx, dy, rdx, rdy, rarea, damp):
    """Reference one application of the del-2 damping flux divergence."""
    fx = np.zeros_like(q)
    fy = np.zeros_like(q)
    fx[1:] = (
        damp
        * (q[:-1] - q[1:])
        * (0.5 * (dy[:-1] + dy[1:]) * rdx[1:])[..., None]
    )
    fy[:, 1:] = (
        damp
        * (q[:, :-1] - q[:, 1:])
        * (0.5 * (dx[:, :-1] + dx[:, 1:]) * rdy[:, 1:])[..., None]
    )
    out = q.copy()
    out[1:-1, 1:-1] += (
        fx[1:-1, 1:-1] - fx[2:, 1:-1] + fy[1:-1, 1:-1] - fy[1:-1, 2:]
    ) * rarea[1:-1, 1:-1, None]
    return out
