"""Hand-written communication plans' topology for the C3xx rule tests."""

from typing import Tuple

from repro.lint.plan_ir import MessageEdge


def ring_edges(n_ranks: int, phases: Tuple[int, ...] = (0, 1),
               cells: int = 1) -> Tuple[MessageEdge, ...]:
    """Synthetic bidirectional-ring topology: every rank exchanges with
    both neighbors in every phase."""
    edges = []
    for phase in phases:
        for dst in range(n_ranks):
            for pi, src in enumerate(
                sorted({(dst - 1) % n_ranks, (dst + 1) % n_ranks})
            ):
                if src == dst:
                    continue
                edges.append(MessageEdge(src, dst, phase, pi, cells))
    return tuple(edges)
