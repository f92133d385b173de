"""Structured lint diagnostics.

Every rule reports :class:`LintFinding` objects — severity, rule id,
subject (stencil or SDFG name), source location and a fix hint — rather
than raising, so a whole module can be audited in one pass and findings
can be diffed across transformation stages (the pipeline's
transformation-safety audit keys on :meth:`LintFinding.key`). A finding
is fixed, not silenced: there is no ignore comment.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.util.loc import SourceLocation

#: Severity levels, most severe first.
SEVERITIES = ("error", "warning", "info")

_SEVERITY_RANK = {s: i for i, s in enumerate(SEVERITIES)}

#: Registry of every rule id the installed rule modules can emit,
#: ``rule id -> rule name``. Populated at import time by each rules
#: module via :func:`register_rules`.
KNOWN_RULES: Dict[str, str] = {}


def register_rules(rules: Mapping[str, str]) -> None:
    """Register ``rule id -> rule name`` pairs emitted by a rules module."""
    KNOWN_RULES.update(rules)


@dataclasses.dataclass(frozen=True)
class LintFinding:
    """One diagnostic produced by a lint rule."""

    rule: str  # e.g. "D101"
    name: str  # e.g. "read-before-write"
    severity: str  # "error" | "warning" | "info"
    subject: str  # stencil / SDFG / kernel the finding is about
    message: str
    location: SourceLocation = SourceLocation()
    hint: Optional[str] = None

    def __post_init__(self):
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")

    def key(self) -> Tuple[str, str, str]:
        """Stable identity used to diff findings across pipeline stages.

        Deliberately excludes the message (ranges in it may legally change
        as transformations reshape kernels without introducing new bugs).
        """
        return (self.rule, self.subject, str(self.location))

    def __str__(self) -> str:
        where = f"{self.location}: " if self.location.known else ""
        return (
            f"{where}{self.severity} {self.rule} [{self.name}] "
            f"{self.subject}: {self.message}"
        )


def sort_findings(findings: Iterable[LintFinding]) -> List[LintFinding]:
    """Most severe first; then by location for stable output."""
    return sorted(
        findings,
        key=lambda f: (
            _SEVERITY_RANK[f.severity],
            f.location.file or "",
            f.location.line or 0,
            f.rule,
        ),
    )


def max_severity(findings: Iterable[LintFinding]) -> Optional[str]:
    """The most severe severity present, or None."""
    ranks = [_SEVERITY_RANK[f.severity] for f in findings]
    return SEVERITIES[min(ranks)] if ranks else None
