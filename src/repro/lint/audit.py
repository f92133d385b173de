"""Transformation-safety audit: diff lint findings across pipeline stages.

Transformations are where the toolchain can silently break a correct
program — a fusion that merges a producer and consumer without enlarging
extents, a schedule change that turns a sequential dimension into a map.
The audit re-runs the SDFG race/overlap rules after every applied stage
and attributes any *new* violation to the stage that introduced it.

Findings are keyed by :meth:`LintFinding.key` (rule, subject, location),
not by message, so ranges that legally change as kernels are reshaped do
not read as new violations.

When a :class:`~repro.lint.plan_ir.CommPlan` is attached, the audit also
re-runs the C3xx communication-protocol rules per stage, re-deriving the
named compute op's read/write footprints from the *current* SDFG — so a
fusion that enlarges a read extent into the halo of an in-flight field
is charged to the stage that applied it, not discovered at runtime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.comm_rules import lint_comm_plan
from repro.lint.findings import LintFinding, sort_findings
from repro.lint.sdfg_rules import lint_sdfg

#: Rules the per-stage audit re-runs: the safety-critical subset (races,
#: coverage, bounds, lifetimes) — cheap enough to run eight times per
#: pipeline, and exactly the properties transformations can break.
AUDIT_RULES = ("S201", "S202", "S203", "S204", "S205")

#: Communication rules re-run per stage when a plan is attached (the
#: schedule itself does not change across stages, but the compute
#: footprints inside the windows do).
AUDIT_COMM_RULES = ("C301", "C302", "C303", "C304")


class TransformationAudit:
    """Tracks which pipeline stage introduced which lint finding.

    ``comm_plan`` attaches a communication schedule; ``comm_op`` names
    the plan's ComputeOp that corresponds to the SDFGs being optimized,
    so its footprints are re-derived from the transformed kernels on
    every check (``comm_rename`` maps SDFG container names to the plan's
    logical field names).
    """

    def __init__(
        self,
        rules: Sequence[str] = AUDIT_RULES,
        comm_plan=None,
        comm_op: Optional[str] = None,
        comm_rename: Optional[Dict[str, str]] = None,
        comm_rules: Sequence[str] = AUDIT_COMM_RULES,
    ):
        self.rules = tuple(rules)
        self.comm_plan = comm_plan
        self.comm_op = comm_op
        self.comm_rename = dict(comm_rename or {})
        self.comm_rules = tuple(comm_rules)
        self._seen: Set[Tuple[str, str, str]] = set()
        self.baseline: List[LintFinding] = []
        #: stage name -> findings first observed after that stage
        self.by_stage: Dict[str, List[LintFinding]] = {}
        self._started = False

    def _lint(self, graphs) -> List[LintFinding]:
        findings = [
            f for sdfg in graphs for f in lint_sdfg(sdfg, rules=self.rules)
        ]
        if self.comm_plan is not None:
            plan = self.comm_plan
            if self.comm_op is not None:
                from repro.lint.plan_ir import compute_op_from_sdfg

                plan = plan.with_compute(
                    self.comm_op,
                    compute_op_from_sdfg(
                        self.comm_op, graphs, rename=self.comm_rename
                    ),
                )
            findings.extend(lint_comm_plan(plan, rules=self.comm_rules))
        return findings

    def start(self, graphs) -> List[LintFinding]:
        """Record the pre-optimization state of ``graphs`` (the SDFGs
        being optimized); its findings are not attributed to any
        transformation."""
        self.baseline = sort_findings(self._lint(graphs))
        self._seen = {f.key() for f in self.baseline}
        self._started = True
        return self.baseline

    def check(self, graphs, stage: str) -> List[LintFinding]:
        """Re-lint ``graphs`` after ``stage``; return findings new since
        the last check, charging them to that stage."""
        if not self._started:
            self.start(graphs)
            return []
        current = self._lint(graphs)
        new = sort_findings(f for f in current if f.key() not in self._seen)
        self._seen.update(f.key() for f in current)
        if new:
            self.by_stage.setdefault(stage, []).extend(new)
        return new

    @property
    def introduced(self) -> List[Tuple[str, LintFinding]]:
        """All (stage, finding) attributions, in stage order."""
        return [
            (stage, f)
            for stage, findings in self.by_stage.items()
            for f in findings
        ]

    def summary(self) -> str:
        if not self.by_stage:
            return "transformation audit: no new findings"
        lines = ["transformation audit:"]
        for stage, findings in self.by_stage.items():
            lines.append(f"  after {stage!r}:")
            lines.extend(f"    {f}" for f in findings)
        return "\n".join(lines)
