"""Transformation-safety audit: diff lint findings across pipeline stages.

Transformations are where the toolchain can silently break a correct
program — a fusion that merges a producer and consumer without enlarging
extents, a schedule change that turns a sequential dimension into a map.
The audit re-runs the SDFG race/overlap rules after every applied stage
and attributes any *new* violation to the stage that introduced it.

Findings are keyed by :meth:`LintFinding.key` (rule, subject, location),
not by message, so ranges that legally change as kernels are reshaped do
not read as new violations.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.lint.findings import LintFinding, sort_findings
from repro.lint.sdfg_rules import lint_sdfg

#: Rules the per-stage audit re-runs: the safety-critical subset (races,
#: coverage, bounds, lifetimes) — cheap enough to run eight times per
#: pipeline, and exactly the properties transformations can break.
AUDIT_RULES = ("S201", "S202", "S203", "S204", "S205")


class TransformationAudit:
    """Tracks which pipeline stage introduced which lint finding."""

    def __init__(self, rules: Sequence[str] = AUDIT_RULES):
        self.rules = tuple(rules)
        self._seen: Set[Tuple[str, str, str]] = set()
        self.baseline: List[LintFinding] = []
        #: stage name -> findings first observed after that stage
        self.by_stage: Dict[str, List[LintFinding]] = {}
        self._started = False

    def _lint(self, graphs) -> List[LintFinding]:
        return [
            f for sdfg in graphs for f in lint_sdfg(sdfg, rules=self.rules)
        ]

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

    def summary(self) -> str:
        if not self.by_stage:
            return "transformation audit: no new findings"
        lines = ["transformation audit:"]
        for stage, findings in self.by_stage.items():
            lines.append(f"  after {stage!r}:")
            lines.extend(f"    {f}" for f in findings)
        return "\n".join(lines)
