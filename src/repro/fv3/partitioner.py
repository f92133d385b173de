"""Cubed-sphere topology and domain decomposition.

The cube topology (which tile borders which, with what orientation) is
*derived geometrically* from the six faces of a cube rather than written
as tables: each face has a 3D origin and right-handed in-plane axes; two
faces are neighbors along an edge when they share its 3D endpoints, and
the index-space rotation between their frames is the unique 90°-multiple
rotation consistent with the shared edge. This gives the orientation
transforms the paper's halo updater applies "based on the pair of ranks"
(Sec. IV-C).

The rank decomposition is the paper's 2D horizontal layout: each of the 6
tiles is split into ``layout × layout`` rectangular subdomains.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from repro.dsl.bounds import GridBounds
from repro.fv3 import constants

Vec3 = Tuple[int, int, int]

#: Right-handed face frames: (normal, x-axis, y-axis) with x × y = n.
FACES: List[Tuple[Vec3, Vec3, Vec3]] = [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((-1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((0, -1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 0, -1), (0, 1, 0), (1, 0, 0)),
]

EDGES = ("W", "E", "S", "N")

#: outward direction of each edge in local (i, j) index space
_OUTWARD = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}
#: direction of increasing edge parameter
_ALONG = {"E": (0, 1), "W": (0, 1), "N": (1, 0), "S": (1, 0)}

#: the four 90°-multiple rotations as 2x2 integer matrices, indexed by the
#: number of counter-clockwise quarter turns
_ROTATIONS = [
    np.array([[1, 0], [0, 1]]),
    np.array([[0, -1], [1, 0]]),
    np.array([[-1, 0], [0, -1]]),
    np.array([[0, 1], [-1, 0]]),
]


def _edge_endpoints(face: int, edge: str) -> Tuple[Vec3, Vec3]:
    """3D endpoints of a face edge, ordered by increasing edge parameter."""
    n, x, y = (np.array(v) for v in FACES[face])
    corners = {
        "E": (n + x - y, n + x + y),
        "W": (n - x - y, n - x + y),
        "S": (n - x - y, n + x - y),
        "N": (n - x + y, n + x + y),
    }
    a, b = corners[edge]
    return tuple(a), tuple(b)


@dataclasses.dataclass(frozen=True)
class EdgeNeighbor:
    """Connectivity of one tile edge."""

    tile: int  # neighboring tile
    edge: str  # the neighbor's edge touching ours
    reversed: bool  # edge parameter runs the other way on the neighbor
    rotations: int  # CCW quarter turns mapping neighbor frame → our frame


def _solve_rotation(edge: str, nedge: str, reversed_: bool) -> int:
    """Quarter turns R with R·outward(nedge') = constraints of the seam.

    Crossing our edge E onto the neighbor's edge E': our outward direction
    equals the neighbor's inward direction, and our along-edge direction
    equals theirs (negated when reversed). R maps neighbor index space
    into ours.
    """
    out_mine = np.array(_OUTWARD[edge])
    along_mine = np.array(_ALONG[edge])
    out_theirs = np.array(_OUTWARD[nedge])
    along_theirs = np.array(_ALONG[nedge])
    sign = -1 if reversed_ else 1
    for r, rot in enumerate(_ROTATIONS):
        if np.array_equal(rot @ (-out_theirs), out_mine) and np.array_equal(
            rot @ (sign * along_theirs), along_mine
        ):
            return r
    raise RuntimeError(f"no rotation solves seam {edge}->{nedge}")


def _build_connectivity() -> Dict[Tuple[int, str], EdgeNeighbor]:
    table: Dict[Tuple[int, str], EdgeNeighbor] = {}
    endpoints = {
        (f, e): _edge_endpoints(f, e)
        for f in range(constants.N_TILES)
        for e in EDGES
    }
    for (f, e), (a, b) in endpoints.items():
        for (g, e2), (c, d) in endpoints.items():
            if g == f:
                continue
            if {a, b} == {c, d}:
                reversed_ = a != c
                table[(f, e)] = EdgeNeighbor(
                    tile=g,
                    edge=e2,
                    reversed=reversed_,
                    rotations=_solve_rotation(e, e2, reversed_),
                )
                break
        else:  # pragma: no cover - geometry guarantees a match
            raise RuntimeError(f"unmatched edge {(f, e)}")
    return table


#: tile-edge connectivity of the cube, derived once at import
CONNECTIVITY: Dict[Tuple[int, str], EdgeNeighbor] = _build_connectivity()


class CubedSpherePartitioner:
    """6-tile × (layout × layout) rank decomposition."""

    def __init__(self, npx: int, layout: int = 1):
        if npx % layout:
            raise ValueError("layout must divide npx")
        self.npx = npx
        self.layout = layout
        self.nx = npx // layout
        self.ny = npx // layout

    # ---- rank addressing -------------------------------------------------

    @property
    def total_ranks(self) -> int:
        return constants.N_TILES * self.layout**2

    def tile_of(self, rank: int) -> int:
        return rank // self.layout**2

    def subtile_of(self, rank: int) -> Tuple[int, int]:
        """(px, py) position of a rank within its tile."""
        local = rank % self.layout**2
        return local % self.layout, local // self.layout

    def rank_at(self, tile: int, px: int, py: int) -> int:
        return tile * self.layout**2 + py * self.layout + px

    def subdomain_origin(self, rank: int) -> Tuple[int, int]:
        """Global (tile-frame) cell index of the rank's first cell."""
        px, py = self.subtile_of(rank)
        return px * self.nx, py * self.ny

    def bounds(self, rank: int) -> GridBounds:
        """GridBounds for horizontal-region resolution on this rank."""
        gi, gj = self.subdomain_origin(rank)
        return GridBounds(origin=(gi, gj), tile_shape=(self.npx, self.npx))

    def on_tile_edge(self, rank: int, edge: str) -> bool:
        px, py = self.subtile_of(rank)
        return {
            "W": px == 0,
            "E": px == self.layout - 1,
            "S": py == 0,
            "N": py == self.layout - 1,
        }[edge]

    def boundary_message_bytes(
        self, n_halo: int, npz: int, n_fields: int, itemsize: int = 8
    ) -> List[int]:
        """Per-neighbor message sizes of one halo exchange (for the
        network model of Fig. 11)."""
        nx = self.nx
        return [nx * n_halo * npz * n_fields * itemsize] * 4
