"""Gnomonic cubed-sphere grid generation and metric terms (Sec. II).

Equiangular gnomonic projection: each tile covers local angles
(x, y) ∈ [-π/4, π/4]²; a point is the central projection of
``n + tan(x)·e_x + tan(y)·e_y`` onto the unit sphere, where (n, e_x, e_y)
is the tile's face frame. Metric terms (cell areas from spherical excess,
edge lengths from great-circle distances, Coriolis parameter) are computed
per rank subdomain including halo cells so stencils can read them without
extra communication.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.fv3 import constants
from repro.fv3.partitioner import FACES, CubedSpherePartitioner


def _project(tile: int, x_ang: np.ndarray, y_ang: np.ndarray) -> np.ndarray:
    """Gnomonic projection of local tile angles onto the unit sphere.

    Returns an array (..., 3) of unit vectors.
    """
    n, ex, ey = (np.asarray(v, dtype=float) for v in FACES[tile])
    p = (
        n[None, None, :]
        + np.tan(x_ang)[..., None] * ex[None, None, :]
        + np.tan(y_ang)[..., None] * ey[None, None, :]
    )
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


def _great_circle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great-circle distance between unit vectors (radius 1)."""
    cross = np.linalg.norm(np.cross(a, b), axis=-1)
    dot = np.sum(a * b, axis=-1)
    return np.arctan2(cross, dot)


def _triangle_area(a, b, c) -> np.ndarray:
    """Spherical triangle area via l'Huilier's theorem (radius 1)."""
    ta = _great_circle(b, c)
    tb = _great_circle(a, c)
    tc = _great_circle(a, b)
    s = 0.5 * (ta + tb + tc)
    inner = (
        np.tan(0.5 * s)
        * np.tan(0.5 * (s - ta))
        * np.tan(0.5 * (s - tb))
        * np.tan(0.5 * (s - tc))
    )
    return 4.0 * np.arctan(np.sqrt(np.maximum(inner, 0.0)))


@dataclasses.dataclass
class CubedSphereGrid:
    """Metric terms of one rank's subdomain (with halo).

    All horizontal arrays are shaped (nx + 2h, ny + 2h).
    """

    rank: int
    partitioner: CubedSpherePartitioner
    n_halo: int
    lon: np.ndarray  # cell-center longitude [rad]
    lat: np.ndarray  # cell-center latitude [rad]
    area: np.ndarray  # cell area [m^2]
    rarea: np.ndarray  # 1 / area
    dx: np.ndarray  # west-east cell extent through the center [m]
    dy: np.ndarray  # south-north cell extent [m]
    rdx: np.ndarray
    rdy: np.ndarray
    f_cor: np.ndarray  # Coriolis parameter [1/s]
    #: local index-basis unit vectors expressed in (east, north) components
    ex_east: np.ndarray = None
    ex_north: np.ndarray = None
    ey_east: np.ndarray = None
    ey_north: np.ndarray = None

    @classmethod
    def build(
        cls,
        partitioner: CubedSpherePartitioner,
        rank: int,
        n_halo: int = constants.N_HALO,
        radius: float = constants.RADIUS,
    ) -> "CubedSphereGrid":
        p = partitioner
        h = n_halo
        tile = p.tile_of(rank)
        ox, oy = p.subdomain_origin(rank)
        npx = p.npx
        dang = (np.pi / 2.0) / npx

        # cell-corner angles for indices [-h, nx+h] (inclusive corners)
        gi = np.arange(ox - h, ox + p.nx + h + 1)
        gj = np.arange(oy - h, oy + p.ny + h + 1)
        xc = -np.pi / 4.0 + gi * dang
        yc = -np.pi / 4.0 + gj * dang
        xcg, ycg = np.meshgrid(xc, yc, indexing="ij")
        corners = _project(tile, xcg, ycg)

        # cell-center angles
        xm = 0.5 * (xc[:-1] + xc[1:])
        ym = 0.5 * (yc[:-1] + yc[1:])
        xmg, ymg = np.meshgrid(xm, ym, indexing="ij")
        centers = _project(tile, xmg, ymg)

        lon = np.arctan2(centers[..., 1], centers[..., 0])
        lat = np.arcsin(np.clip(centers[..., 2], -1.0, 1.0))

        # areas from the two spherical triangles of each corner quad
        a = corners[:-1, :-1]
        b = corners[1:, :-1]
        c = corners[1:, 1:]
        d = corners[:-1, 1:]
        area = (_triangle_area(a, b, c) + _triangle_area(a, c, d)) * radius**2

        # through-center extents (midpoints of opposite edges)
        west = _project(tile, xcg[:-1, :-1] * 0 + xc[:-1, None], 0 * ycg[:-1, :-1] + ym[None, :])
        east = _project(tile, 0 * xcg[1:, :-1] + xc[1:, None], 0 * ycg[1:, :-1] + ym[None, :])
        south = _project(tile, 0 * xcg[:-1, :-1] + xm[:, None], 0 * ycg[:-1, :-1] + yc[None, :-1])
        north = _project(tile, 0 * xcg[:-1, 1:] + xm[:, None], 0 * ycg[:-1, 1:] + yc[None, 1:])
        dx = _great_circle(west, east) * radius
        dy = _great_circle(south, north) * radius

        f_cor = 2.0 * constants.OMEGA * np.sin(lat)

        # local basis unit vectors in the (east, north) tangent frame
        east3 = np.stack(
            [-np.sin(lon), np.cos(lon), np.zeros_like(lon)], axis=-1
        )
        north3 = np.stack(
            [
                -np.sin(lat) * np.cos(lon),
                -np.sin(lat) * np.sin(lon),
                np.cos(lat),
            ],
            axis=-1,
        )
        ex3 = east - west
        ex3 = ex3 / np.linalg.norm(ex3, axis=-1, keepdims=True)
        ey3 = north - south
        ey3 = ey3 / np.linalg.norm(ey3, axis=-1, keepdims=True)
        ex_east = np.sum(ex3 * east3, axis=-1)
        ex_north = np.sum(ex3 * north3, axis=-1)
        ey_east = np.sum(ey3 * east3, axis=-1)
        ey_north = np.sum(ey3 * north3, axis=-1)

        return cls(
            rank=rank,
            partitioner=p,
            n_halo=h,
            lon=lon,
            lat=lat,
            area=area,
            rarea=1.0 / area,
            dx=dx,
            dy=dy,
            rdx=1.0 / dx,
            rdy=1.0 / dy,
            f_cor=f_cor,
            ex_east=ex_east,
            ex_north=ex_north,
            ey_east=ey_east,
            ey_north=ey_north,
        )

    def wind_to_local(
        self, u_east: np.ndarray, v_north: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Project an (east, north) wind onto the local index basis.

        Solves the per-cell 2×2 system [e_x e_y]·(u_loc, v_loc) = wind.
        """
        det = self.ex_east * self.ey_north - self.ey_east * self.ex_north
        u_loc = (u_east * self.ey_north - v_north * self.ey_east) / det
        v_loc = (v_north * self.ex_east - u_east * self.ex_north) / det
        if u_east.ndim == 3 or v_north.ndim == 3:  # pragma: no cover
            raise ValueError("wind_to_local expects 2D horizontal fields")
        return u_loc, v_loc

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self.area.shape
