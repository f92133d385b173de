"""The optimization pipeline (Fig. 7) and Table III reproduction.

The cycle: initial heuristics → auto-tuning → transfer to the full
application → model-guided fine tuning. Every stage is applied through the
toolchain without modifying user code, and the modeled (and optionally
measured) step time is recorded after each stage — reproducing the rows of
Table III.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.core.autotune import make_evaluator, tune_cutout
from repro.core.heuristics import apply_schedule_heuristics
from repro.machine import HASWELL, P100, MachineModel
from repro.core.perfmodel import model_sdfg_time
from repro.core.transfer import extract_patterns, transfer_patterns
from repro.dsl.backend_numpy import region_ranges
from repro.lint.audit import TransformationAudit
from repro.lint.findings import LintFinding
from repro.sdfg.cutout import state_cutouts
from repro.sdfg.nodes import Kernel
from repro.sdfg.validation import validate_sdfg
from repro.sdfg.transformations import (
    DeadKernelElimination,
    LocalStorage,
    OTFMapFusion,
    PowerExpansion,
    RegionSplit,
    SubgraphFusion,
    apply_exhaustively,
)


@dataclasses.dataclass
class StageResult:
    """One row of Table III."""

    cycle: str
    name: str
    modeled_time: float
    measured_time: Optional[float] = None
    speedup: float = 1.0  # vs the FORTRAN baseline row
    #: wall-clock seconds the toolchain spent producing this stage
    stage_seconds: float = 0.0
    #: span-tree snapshot of the stage's work (tracing enabled only)
    spans: Optional[Dict] = None
    #: lint violations first observed after this stage's transformations
    #: (the transformation-safety audit attributes them to the stage)
    lint_findings: List[LintFinding] = dataclasses.field(default_factory=list)


def prune_inactive_regions(sdfg) -> int:
    """Region pruning: delete region statements that can never execute on
    this rank's bounds, then dead kernels. Returns statements removed."""
    removed = 0
    for state in sdfg.states:
        for node in state.nodes:
            if not isinstance(node, Kernel):
                continue
            for section in node.sections:
                kept = []
                for stmt, ext in section.statements:
                    if stmt.region is not None:
                        ranges = region_ranges(
                            stmt.region, node.domain, node.bounds, ext
                        )
                        if ranges is None:
                            removed += 1
                            continue
                    kept.append((stmt, ext))
                section.statements = kept
            node.sections = [s for s in node.sections if s.statements]
        state.nodes = [
            n
            for n in state.nodes
            if not (isinstance(n, Kernel) and not n.sections)
        ]
    apply_exhaustively(sdfg, [DeadKernelElimination()])
    return removed


def optimize_sdfg_locally(sdfg, machine: MachineModel = P100) -> None:
    """Local optimization bundle (Sec. VI-A): schedule heuristics, local
    storage, power-operator strength reduction, region splitting."""
    apply_schedule_heuristics(sdfg, machine)
    apply_exhaustively(sdfg, [LocalStorage()])
    apply_exhaustively(sdfg, [PowerExpansion()])
    apply_exhaustively(sdfg, [RegionSplit()])


@dataclasses.dataclass
class PipelineOptions:
    machine: MachineModel = P100
    baseline_machine: MachineModel = HASWELL
    measure: bool = False  # also time compiled programs (wall clock)
    transfer_states: Optional[Sequence[str]] = None  # tune only these states
    tune_measured: bool = False  # evaluate cutouts by execution
    max_tuning_cutouts: int = 32
    fine_tune_hooks: Sequence[Callable] = ()
    #: re-run the lint race/overlap rules after every stage and attribute
    #: new violations to the transformation that introduced them
    lint_audit: bool = True


class OptimizationPipeline:
    """Runs the Fig. 7 cycle on the SDFGs of an orchestrated step, one per
    program (``DynamicalCore.step_graphs``)."""

    def __init__(self, options: Optional[PipelineOptions] = None):
        self.options = options or PipelineOptions()
        self.stages: List[StageResult] = []
        #: transformation-safety audit (created by run() when enabled)
        self.audit: Optional[TransformationAudit] = None

    # ------------------------------------------------------------------
    def _record(self, cycle: str, name: str, graphs, baseline: float,
                run: Optional[Callable] = None) -> StageResult:
        modeled = sum(model_sdfg_time(g, self.options.machine) for g in graphs)
        measured = None
        if self.options.measure and run is not None:
            measured = run(graphs)
        result = StageResult(
            cycle=cycle,
            name=name,
            modeled_time=modeled,
            measured_time=measured,
            speedup=baseline / modeled if modeled > 0 else float("inf"),
        )
        self.stages.append(result)
        return result

    def _stage(self, cycle: str, name: str, graphs, baseline: float,
               run: Optional[Callable], work: Optional[Callable] = None
               ) -> StageResult:
        """Apply one optimization stage inside a span and record its row.

        The stage's transformation work, model evaluation and optional
        measured run all happen under a ``pipeline.<name>`` span, so each
        Table III row carries the full span tree of how it was produced.
        """
        tracer = obs.get_tracer()
        new_findings: List[LintFinding] = []
        with tracer.timed(f"pipeline.{name}") as timer:
            if work is not None:
                work()
            if self.audit is not None:
                new_findings = self.audit.check(graphs, name)
                if timer.span is not None:
                    timer.span.set("lint.new_findings", len(new_findings))
                    if new_findings:
                        timer.span.set(
                            "lint.findings", [str(f) for f in new_findings]
                        )
            result = self._record(cycle, name, graphs, baseline, run)
        result.lint_findings = new_findings
        result.stage_seconds = timer.seconds
        if timer.span is not None:
            result.spans = obs.snapshot(timer.span)
        return result

    def run(self, graphs: Sequence, run: Optional[Callable] = None
            ) -> List[StageResult]:
        """Optimize ``graphs`` in place, recording Table III-style stages:
        each stage is applied to every graph, and a row's time is the sum
        over them.

        ``run`` optionally executes the compiled graphs and returns
        wall-clock seconds (used when ``options.measure`` is set).
        """
        opts = self.options
        for sdfg in graphs:
            validate_sdfg(sdfg)  # structural invariants must hold at entry
        if opts.lint_audit:
            self.audit = TransformationAudit()
            self.audit.start(graphs)  # pre-existing findings are not charged
        baseline_time = sum(
            model_sdfg_time(g, opts.baseline_machine) for g in graphs
        )
        self.stages.append(
            StageResult(
                cycle="",
                name="FORTRAN",
                modeled_time=baseline_time,
                speedup=1.0,
            )
        )
        self._stage("", "GT4Py + DaCe (Default)", graphs, baseline_time, run)

        def each(transform: Callable) -> Callable:
            def work():
                for sdfg in graphs:
                    transform(sdfg)
            return work

        # ---- cycle 1 ------------------------------------------------------
        self._stage("Cycle 1", "Stencil schedule heuristics", graphs,
                    baseline_time, run,
                    each(lambda g: apply_schedule_heuristics(g, opts.machine)))

        self._stage("Cycle 1", "Local caching", graphs, baseline_time, run,
                    each(lambda g: apply_exhaustively(g, [LocalStorage()])))

        self._stage("Cycle 1", "Optimize power operator", graphs,
                    baseline_time, run,
                    each(lambda g: apply_exhaustively(g, [PowerExpansion()])))

        self._stage("Cycle 1", "Split regions to multiple kernels", graphs,
                    baseline_time, run,
                    each(lambda g: apply_exhaustively(g, [RegionSplit()])))

        # ---- cycle 2 ------------------------------------------------------
        def _fine_tune(sdfg):
            for hook in opts.fine_tune_hooks:
                hook(sdfg)

        self._stage("Cycle 2", "Lagrangian contrib. reschedule", graphs,
                    baseline_time, run, each(_fine_tune))

        self._stage("Cycle 2", "Region pruning", graphs, baseline_time, run,
                    each(prune_inactive_regions))

        self._stage("Cycle 2", "Transfer Tuning (FVT)", graphs,
                    baseline_time, run, lambda: self.transfer_tune(graphs))
        for sdfg in graphs:
            validate_sdfg(sdfg)  # and after the final transformation stage
        return self.stages

    # ------------------------------------------------------------------
    def transfer_tune(self, graphs: Sequence) -> Dict[str, object]:
        """Phase 1 (tune the cutouts of all graphs) + phase 2 (transfer
        the patterns to each graph)."""
        opts = self.options
        cutouts = [c for sdfg in graphs for c in state_cutouts(sdfg)]
        if opts.transfer_states is not None:
            cutouts = [
                c
                for c in cutouts
                if any(tag in c.source_state for tag in opts.transfer_states)
            ]
        cutouts = cutouts[: opts.max_tuning_cutouts]
        evaluator = make_evaluator(
            machine=opts.machine, measured=opts.tune_measured
        )
        configs = []
        total_evaluated = 0
        with obs.timed("transfer.tune_cutouts") as phase1:
            for cutout in cutouts:
                cfgs, n = tune_cutout(cutout, evaluator)
                configs.extend(cfgs)
                total_evaluated += n
        patterns = extract_patterns(configs, top_m=2)
        per_pattern = dict.fromkeys(patterns, 0)
        with obs.timed("transfer.apply_patterns") as phase2:
            for sdfg in graphs:
                result = transfer_patterns(sdfg, patterns,
                                           machine=opts.machine)
                for pattern, applied in result.per_pattern.items():
                    per_pattern[pattern] += applied
                # clean up fully-fused leftovers
                apply_exhaustively(sdfg, [DeadKernelElimination()])
        return {
            "cutouts": len(cutouts),
            "configurations": total_evaluated,
            "patterns": len(patterns),
            "applied": sum(per_pattern.values()),
            "per_pattern": per_pattern,
            "phase1_seconds": phase1.seconds,
            "phase2_seconds": phase2.seconds,
        }


def format_table3(stages: Sequence[StageResult]) -> str:
    """Render the stages as the paper's Table III."""
    lines = [f"{'Cycle':<8} {'Version':<36} {'Step Time':>12} {'Speedup':>9}"]
    for s in stages:
        lines.append(
            f"{s.cycle:<8} {s.name:<36} {s.modeled_time:>10.4f}s "
            f"{s.speedup:>8.2f}x"
        )
    return "\n".join(lines)
