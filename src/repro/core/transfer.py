"""Transfer tuning (Sec. VI-B, phase 2): reapply tuned patterns globally.

"The best M configurations are translated into optimization patterns and
tested on the whole graph... we ensure that optimization patterns are only
applied if they also provide a local performance improvement on a match."
Patterns are described by stencil labels (configurations are sufficiently
described by candidate labels + transformation type); the space of matches
is pruned by considering only the first match per pattern in each state.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.core.autotune import TuningConfig, _XFORMS
from repro.machine import MachineModel
from repro.core.perfmodel import model_sdfg_time
from repro.sdfg.cutout import cutout_from_nodes


@dataclasses.dataclass(frozen=True)
class Pattern:
    """A transferable optimization pattern."""

    xform: str  # "otf" or "sgf"
    labels: Tuple[Tuple[str, ...], ...]  # constituent labels of the match

    def __repr__(self) -> str:
        pretty = " ⊕ ".join("+".join(l) for l in self.labels)
        return f"Pattern({self.xform}: {pretty})"


def extract_patterns(
    configs: Sequence[TuningConfig], top_m: int = 2
) -> List[Pattern]:
    """Translate the best M configurations of each cutout into patterns."""
    patterns: List[Pattern] = []
    seen = set()
    by_cutout = {}
    for cfg in configs:
        by_cutout.setdefault(cfg.cutout_name, []).append(cfg)
    for _, cfgs in by_cutout.items():
        cfgs = sorted(cfgs, key=lambda c: c.score)
        taken = 0
        for cfg in cfgs:
            if cfg.is_baseline or taken >= top_m:
                continue
            taken += 1
            for xform_name, labels in cfg.steps:
                key = (xform_name, labels)
                if key not in seen:
                    seen.add(key)
                    patterns.append(Pattern(xform_name, labels))
    return patterns


def find_match(sdfg, state, pattern: Pattern):
    """First legal candidate in a state matching a pattern's labels."""
    xform = _XFORMS[pattern.xform]()
    for cand in xform.candidates(sdfg, state):
        i, j = cand[0], cand[1]
        labels = (
            tuple(state.nodes[i].constituents),
            tuple(state.nodes[j].constituents),
        )
        if labels == pattern.labels and xform.can_apply(sdfg, state, cand):
            return cand
    return None


@dataclasses.dataclass
class TransferResult:
    applied: int
    tested: int
    per_pattern: dict


def transfer_patterns(
    sdfg,
    patterns: Sequence[Pattern],
    machine: Optional[MachineModel] = None,
    require_improvement: bool = True,
) -> TransferResult:
    """Apply patterns across the whole graph.

    For every (pattern, state) pair, only the first match is considered
    (the paper's pruning); the rewrite is committed only when the machine
    model reports a local improvement on the surrounding state.
    """
    applied = 0
    tested = 0
    per_pattern: dict = {}
    for pattern in patterns:
        count = 0
        for state in sdfg.states:
            progress = True
            while progress:
                progress = False
                cand = find_match(sdfg, state, pattern)
                if cand is None:
                    break
                tested += 1
                if require_improvement and machine is not None:
                    if not _improves_locally(sdfg, state, pattern, cand, machine):
                        break
                xform = _XFORMS[pattern.xform]()
                xform.apply(sdfg, state, cand)
                applied += 1
                count += 1
                progress = True
        per_pattern[pattern] = count
    return TransferResult(applied=applied, tested=tested, per_pattern=per_pattern)


def _improves_locally(sdfg, state, pattern: Pattern, cand, machine) -> bool:
    """Model the state as a cutout before/after the candidate rewrite."""
    kernels = state.kernels
    if not kernels:
        return False
    cutout = cutout_from_nodes(sdfg, state, kernels)
    before = model_sdfg_time(cutout.sdfg, machine)
    trial = cutout.sdfg
    xform = _XFORMS[pattern.xform]()
    tstate = trial.states[0]
    # locate the same candidate by label in the cutout copy
    match = None
    for c in xform.candidates(trial, tstate):
        i, j = c[0], c[1]
        labels = (
            tuple(tstate.nodes[i].constituents),
            tuple(tstate.nodes[j].constituents),
        )
        if labels == pattern.labels and xform.can_apply(trial, tstate, c):
            match = c
            break
    if match is None:
        return False
    xform.apply(trial, tstate, match)
    after = model_sdfg_time(trial, machine)
    return after < before
