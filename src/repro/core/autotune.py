"""Exhaustive auto-tuning of cutout subgraphs (Sec. VI-B, phase 1).

For each cutout, the configuration space is the set of fusion-
transformation application sequences ("weakly-connected subgraphs of the
state with at least two maps"); every configuration is evaluated — by the
machine model or by measured execution — and the best M are kept for
transfer (the paper explores ≤48 configurations per cutout, 1,272 in total
for the FVT module, exhaustively).

The tuning is hierarchical as in the paper: an OTF pass first (trading
memory for recomputation), then an SGF pass on the OTF-optimized cutouts.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

from repro.machine import MachineModel
from repro.core.perfmodel import model_sdfg_time
from repro.obs import tracer as _obs
from repro.sdfg.cutout import Cutout, time_cutout
from repro.sdfg.transformations import OTFMapFusion, SubgraphFusion

_TRACER = _obs.get_tracer()

#: A single transformation application, described by the constituent
#: stencil labels of the kernels it touched (the paper: "a configuration is
#: sufficiently described by a set of labels of the candidates and which
#: transformations were applied").
Step = Tuple[str, Tuple[Tuple[str, ...], ...]]


@dataclasses.dataclass
class TuningConfig:
    """One evaluated configuration of a cutout."""

    steps: Tuple[Step, ...]
    score: float  # seconds (model or measured); lower is better
    cutout_name: str

    @property
    def is_baseline(self) -> bool:
        return not self.steps


_XFORMS = {"otf": OTFMapFusion, "sgf": SubgraphFusion}
#: the passes of the hierarchical search, in order
PASSES = ("otf", "sgf")
#: the depth of a pass's search tree: applications in one configuration
MAX_DEPTH = 3


def _candidate_steps(sdfg, xform_name: str) -> List[Tuple[object, Step]]:
    """Applicable candidates with their label-based descriptions."""
    xform = _XFORMS[xform_name]()
    out = []
    for state in sdfg.states:
        for cand in xform.candidates(sdfg, state):
            if not xform.can_apply(sdfg, state, cand):
                continue
            i, j = cand[0], cand[1]
            labels = (
                tuple(state.nodes[i].constituents),
                tuple(state.nodes[j].constituents),
            )
            out.append(((state, cand, xform), (xform_name, labels)))
    return out


def make_evaluator(
    machine: Optional[MachineModel] = None,
    measured: bool = False,
    repetitions: int = 3,
) -> Callable[[Cutout], float]:
    """Score function for configurations: modeled or measured seconds."""
    if measured:
        return lambda cutout: time_cutout(cutout, repetitions=repetitions)
    if machine is None:
        raise ValueError("model-based evaluation requires a machine model")
    return lambda cutout: model_sdfg_time(cutout.sdfg, machine)


def tune_cutout(
    cutout: Cutout, evaluator: Callable[[Cutout], float]
) -> Tuple[List[TuningConfig], int]:
    """Exhaustively tune one cutout.

    Returns (every configuration sorted best-first, total configurations
    evaluated). The search is a tree over transformation applications per
    pass, :data:`MAX_DEPTH` deep; each pass starts from the best
    configuration of the previous one (hierarchical OTF → SGF tuning).
    """
    with _TRACER.span("autotune.cutout") as sp:
        configs, evaluated = _tune_cutout(cutout, evaluator)
        sp.add("configurations", evaluated)
        sp.set("cutout", cutout.source_state)
        return configs, evaluated


def _tune_cutout(cutout, evaluator):
    evaluated = 0

    def scored(sdfg, steps) -> TuningConfig:
        nonlocal evaluated
        evaluated += 1
        c = Cutout(sdfg, cutout.inputs, cutout.outputs, cutout.source_state)
        return TuningConfig(tuple(steps), evaluator(c), cutout.source_state)

    best_sdfg = cutout.sdfg
    best_steps: Tuple[Step, ...] = ()
    all_configs: List[TuningConfig] = [scored(best_sdfg, best_steps)]

    for pass_name in PASSES:
        frontier = [(best_sdfg, best_steps)]
        pass_configs: List[TuningConfig] = []
        for _ in range(MAX_DEPTH):
            next_frontier = []
            for sdfg, steps in frontier:
                for concrete, step in _candidate_steps(sdfg, pass_name):
                    trial = sdfg.copy()
                    # re-locate the candidate in the copy by position
                    state_idx = sdfg.states.index(concrete[0])
                    trial_state = trial.states[state_idx]
                    xform = _XFORMS[pass_name]()
                    if not xform.can_apply(trial, trial_state, concrete[1]):
                        continue
                    xform.apply(trial, trial_state, concrete[1])
                    cfg = scored(trial, steps + (step,))
                    pass_configs.append(cfg)
                    next_frontier.append((trial, cfg.steps))
            frontier = next_frontier
            if not frontier:
                break
        all_configs.extend(pass_configs)
        # hierarchical: next pass starts from this pass's best
        pool = pass_configs + [c for c in all_configs if c.is_baseline]
        pool.sort(key=lambda c: c.score)
        if pool and not pool[0].is_baseline:
            best = pool[0]
            best_sdfg, best_steps = _replay(cutout, best.steps), best.steps
    all_configs.sort(key=lambda c: c.score)
    return all_configs, evaluated


def _replay(cutout: Cutout, steps: Tuple[Step, ...]):
    """Re-apply a step sequence onto a fresh copy of the cutout."""
    sdfg = cutout.sdfg.copy()
    for xform_name, labels in steps:
        xform = _XFORMS[xform_name]()
        applied = False
        for state in sdfg.states:
            for cand in xform.candidates(sdfg, state):
                i, j = cand[0], cand[1]
                cl = (
                    tuple(state.nodes[i].constituents),
                    tuple(state.nodes[j].constituents),
                )
                if cl == labels and xform.can_apply(sdfg, state, cand):
                    xform.apply(sdfg, state, cand)
                    applied = True
                    break
            if applied:
                break
        if not applied:
            raise RuntimeError(f"could not replay step {xform_name} {labels}")
    return sdfg
