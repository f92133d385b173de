"""Transformation framework: candidate enumeration + legality + rewrite."""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.sdfg.nodes import Callback, Kernel, Node, Tasklet


class Transformation:
    """Base class for pattern-matching graph rewrites."""

    name: str = "transformation"

    def candidates(self, sdfg, state) -> List[Any]:
        """Enumerate match candidates in one state."""
        raise NotImplementedError

    def can_apply(self, sdfg, state, candidate) -> bool:
        return True

    def apply(self, sdfg, state, candidate) -> None:
        raise NotImplementedError

    def apply_first(self, sdfg) -> bool:
        """Apply the first legal candidate anywhere in the SDFG."""
        for state in sdfg.states:
            for cand in self.candidates(sdfg, state):
                if self.can_apply(sdfg, state, cand):
                    self.apply(sdfg, state, cand)
                    return True
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


#: a bound on the rewrites of one fixpoint, so that two transformations
#: undoing each other cannot loop for ever
MAX_APPLICATIONS = 10_000


def apply_exhaustively(sdfg, transformations) -> int:
    """Apply transformations to fixpoint; returns number of applications."""
    applied = 0
    progress = True
    while progress and applied < MAX_APPLICATIONS:
        progress = False
        for xf in transformations:
            if xf.apply_first(sdfg):
                applied += 1
                progress = True
                break
    return applied


# ---------------------------------------------------------------------------
# Dependence helpers
# ---------------------------------------------------------------------------


def node_conflicts(state, a: Node, b: Node) -> bool:
    """True if nodes a and b cannot be reordered past each other."""
    if isinstance(a, Callback) or isinstance(b, Callback):
        return True  # __pystate serializes callbacks against everything
    if isinstance(a, Tasklet) or isinstance(b, Tasklet):
        # a kernel reads a tasklet's scalar by name, which is in no
        # container set below: keep kernels on their side of it
        return True
    ra, wa = state.node_reads_writes(a)
    rb, wb = state.node_reads_writes(b)
    wa_s, wb_s = set(wa), set(wb)
    return bool(wa_s & set(rb)) or bool(wb_s & set(ra)) or bool(wa_s & wb_s)


def can_become_adjacent(state, i: int, j: int) -> bool:
    """Can node j be moved up to just after node i (i < j)?"""
    b = state.nodes[j]
    for m in range(i + 1, j):
        if node_conflicts(state, state.nodes[m], b):
            return False
    return True


def global_program_order(sdfg) -> List[Tuple[int, int, Node]]:
    """Flat (state_index, node_index, node) order of the whole program."""
    out = []
    for si, state in enumerate(sdfg.states):
        for ni, node in enumerate(state.nodes):
            out.append((si, ni, node))
    return out


def container_users(sdfg, name: str):
    """All (position, node, kind) uses of a container in program order."""
    uses = []
    for si, ni, node in global_program_order(sdfg):
        state = sdfg.states[si]
        reads, writes = state.node_reads_writes(node)
        if name in reads:
            uses.append(((si, ni), node, "r"))
        if name in writes:
            uses.append(((si, ni), node, "w"))
    return uses


def fresh_local_names(a: Kernel, b: Kernel):
    """Rename b's local arrays that collide with a's; returns rename map."""
    rename = {}
    for name in b.local_arrays:
        if name in a.local_arrays:
            new = name
            n = 0
            existing = set(a.local_arrays) | set(b.local_arrays)
            while new in existing or new in rename.values():
                n += 1
                new = f"{name}__f{n}"
            rename[name] = new
    return rename
