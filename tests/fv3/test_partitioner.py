"""Cube topology and partitioner tests."""

import numpy as np
import pytest

from repro.fv3 import constants
from repro.fv3.halo import HaloUpdater, _tile_edge_map
from repro.fv3.partitioner import (
    CONNECTIVITY,
    EDGES,
    FACES,
    CubedSpherePartitioner,
    _edge_endpoints,
)


def test_face_frames_right_handed():
    for n, x, y in FACES:
        assert np.array_equal(np.cross(x, y), np.array(n))


def test_every_edge_has_neighbor():
    assert len(CONNECTIVITY) == 6 * 4
    for (tile, edge), conn in CONNECTIVITY.items():
        assert conn.tile != tile
        assert conn.edge in EDGES


def test_connectivity_symmetric():
    """If tile A's edge E touches tile B's edge E', then B's E' touches A."""
    for (tile, edge), conn in CONNECTIVITY.items():
        back = CONNECTIVITY[(conn.tile, conn.edge)]
        assert back.tile == tile
        assert back.edge == edge
        assert back.reversed == conn.reversed
        # rotations compose to identity
        assert (back.rotations + conn.rotations) % 4 == 0


def test_each_tile_touches_four_distinct_tiles():
    for tile in range(constants.N_TILES):
        neighbors = {CONNECTIVITY[(tile, e)].tile for e in EDGES}
        assert len(neighbors) == 4
        assert tile not in neighbors


def test_edge_endpoints_shared():
    for (tile, edge), conn in CONNECTIVITY.items():
        mine = set(_edge_endpoints(tile, edge))
        theirs = set(_edge_endpoints(conn.tile, conn.edge))
        assert mine == theirs


def test_rank_addressing_roundtrip():
    p = CubedSpherePartitioner(npx=12, layout=2)
    assert p.total_ranks == 24
    for rank in range(p.total_ranks):
        tile = p.tile_of(rank)
        px, py = p.subtile_of(rank)
        assert p.rank_at(tile, px, py) == rank


def test_subdomain_origins_tile_cover():
    p = CubedSpherePartitioner(npx=12, layout=2)
    seen = set()
    for rank in range(4):  # ranks of tile 0
        ox, oy = p.subdomain_origin(rank)
        for i in range(p.nx):
            for j in range(p.ny):
                seen.add((ox + i, oy + j))
    assert seen == {(i, j) for i in range(12) for j in range(12)}


def test_same_tile_neighbors_no_rotation():
    """The halo of a rank's east edge inside its tile comes from the next
    rank of the tile, unrotated."""
    p = CubedSpherePartitioner(npx=12, layout=2)
    rank = p.rank_at(0, 0, 0)
    east = [
        plan for phase in HaloUpdater(p, n_halo=3).plans[rank]
        for plan in phase if plan.src_rank == p.rank_at(0, 1, 0)
    ]
    assert east and all(plan.rotations == 0 for plan in east)


def test_cross_tile_neighbor_consistency():
    """Crossing an edge and crossing back lands on the original cell, for
    every cell along every edge of every tile; the first cell of an edge
    lands at the neighbor's end that touches the same cube corner."""
    npx = 12
    outward = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}
    for tile in range(constants.N_TILES):
        for edge, (di, dj) in outward.items():
            theirs = CONNECTIVITY[(tile, edge)].edge
            back_i, back_j = outward[theirs]
            for s in range(npx):
                inside = {"E": (npx - 1, s), "W": (0, s),
                          "N": (s, npx - 1), "S": (s, 0)}[edge]
                t2, i2, j2, _ = _tile_edge_map(
                    npx, tile, inside[0] + di, inside[1] + dj
                )
                assert _tile_edge_map(
                    npx, t2, i2 + back_i, j2 + back_j
                )[:3] == (tile, *inside), (tile, edge, s)
                if s == 0:
                    corner = _edge_endpoints(tile, edge)[0]
                    same = _edge_endpoints(t2, theirs)[0] == corner
                    along = j2 if theirs in "EW" else i2
                    assert along == (0 if same else npx - 1), (tile, edge)


def test_bounds_edge_ownership():
    p = CubedSpherePartitioner(npx=12, layout=2)
    b = p.bounds(p.rank_at(0, 0, 0))
    assert b.origin == (0, 0)
    assert b.tile_shape == (12, 12)
    b2 = p.bounds(p.rank_at(0, 1, 1))
    assert b2.origin == (6, 6)
    assert p.on_tile_edge(p.rank_at(0, 0, 0), "W")
    assert not p.on_tile_edge(p.rank_at(0, 1, 1), "W")


def test_invalid_layout_rejected():
    with pytest.raises(ValueError):
        CubedSpherePartitioner(npx=10, layout=3)
