"""Halo-exchange observability: traced byte/message counters must match
the analytically computed exchange sizes.

For an ``n_halo = h`` exchange on per-rank ``(nx, ny)`` subdomains, every
rank receives, per scalar update:

- phase 0 (x-direction, interior j): ``2 * h * ny`` cells
- phase 1 (y-direction incl. corner columns): ``(nx + 2h) * 2h`` cells

so the total traffic is ``ranks * (2*h*ny + (nx + 2h)*2*h)`` cells times
the payload bytes per cell.
"""

import numpy as np
import pytest

from repro import obs
from repro.fv3.halo import HaloUpdater
from repro.fv3.partitioner import CubedSpherePartitioner
from tests.fv3.halo_support import update_scalar

H = 3


def _cells_per_update(p, h=H):
    return p.total_ranks * (2 * h * p.ny + (p.nx + 2 * h) * 2 * h)


def _exchange_span(parent_name):
    root = obs.get_tracer().root
    return root.children[parent_name].children["halo.exchange"]


@pytest.mark.traced
def test_scalar_counters_match_analytic_sizes_2x2():
    p = CubedSpherePartitioner(npx=12, layout=2)  # 2x2 ranks per tile
    updater = HaloUpdater(p, n_halo=H)
    shape = (p.nx + 2 * H, p.ny + 2 * H)
    update_scalar(updater, [np.zeros(shape) for _ in range(p.total_ranks)])

    ex = _exchange_span("halo.update_scalar")
    # per rank and phase: one entry posting, one completing
    assert ex.count == 4 * p.total_ranks
    assert ex.attrs["bytes"] == _cells_per_update(p) * 8  # float64
    # messages: one per (source rank, rotation) gather plan
    assert ex.attrs["messages"] == sum(
        len(phase) for rank_plans in updater.plans for phase in rank_plans
    )


@pytest.mark.traced
def test_scalar_counters_scale_with_k_and_dtype():
    p = CubedSpherePartitioner(npx=12, layout=2)
    updater = HaloUpdater(p, n_halo=H)
    nk = 4
    shape = (p.nx + 2 * H, p.ny + 2 * H, nk)
    update_scalar(
        updater,
        [np.zeros(shape, dtype=np.float32) for _ in range(p.total_ranks)],
    )
    ex = _exchange_span("halo.update_scalar")
    assert ex.attrs["bytes"] == _cells_per_update(p) * nk * 4


@pytest.mark.traced
def test_vector_update_doubles_traffic_and_counts_rotated_cells():
    p = CubedSpherePartitioner(npx=12, layout=2)
    updater = HaloUpdater(p, n_halo=H)
    shape = (p.nx + 2 * H, p.ny + 2 * H)
    u = [np.zeros(shape) for _ in range(p.total_ranks)]
    v = [np.zeros(shape) for _ in range(p.total_ranks)]
    updater.update_vector(u, v)

    vec = obs.get_tracer().root.children["halo.update_vector"]
    ex = vec.children["halo.exchange"]
    # both components travel in one message per neighbor and phase
    assert ex.count == 4 * p.total_ranks
    assert ex.attrs["bytes"] == 2 * _cells_per_update(p) * 8
    assert ex.attrs["messages"] == sum(
        len(phase) for rank_plans in updater.plans for phase in rank_plans
    )

    rot = vec.children["halo.rotate_vectors"]
    expected_rotated = sum(
        plan.cells
        for rank_plans in updater.plans
        for phase in rank_plans
        for plan in phase
        if plan.rotations != 0
    )
    assert expected_rotated > 0  # cube seams exist on every layout
    assert rot.attrs["cells"] == expected_rotated


def test_counters_untouched_when_tracing_disabled():
    tracer = obs.get_tracer()
    if tracer.enabled:
        pytest.skip("tracing enabled process-wide (REPRO_TRACE=1)")
    before = dict(tracer.root.children)
    p = CubedSpherePartitioner(npx=8, layout=1)
    updater = HaloUpdater(p, n_halo=H)
    shape = (p.nx + 2 * H, p.ny + 2 * H)
    update_scalar(updater, [np.zeros(shape) for _ in range(p.total_ranks)])
    assert dict(tracer.root.children) == before
