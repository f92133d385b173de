"""repro.lint — semantic static analysis for stencils, SDFGs and plans.

Four layers mirror the toolchain: :func:`lint_stencil` checks what the
user wrote (DSL rules ``D1xx``); :func:`lint_sdfg` checks what the
toolchain is about to execute (SDFG rules ``S2xx``, a race detector over
expanded map scopes); :func:`lint_comm_plan` checks how ranks will talk
(communication-protocol rules ``C3xx`` over a :class:`CommPlan` — the
whole-program send/recv, tag-slot and overlap-window verifier); and
:func:`lint_buffer_events` checks pooled-buffer lifetimes (runtime rules
``R4xx``, fed by :func:`record_buffer_events` traces or a compiled
plan's allocation log via :func:`lint_compiled_plan`).

:class:`TransformationAudit` diffs the SDFG and protocol rules across
pipeline stages so a transformation that introduces a violation is
named in the report. ``python -m repro.lint <module-or-path>`` runs the
static layers from the shell; ``--comm`` adds the protocol rules and
``--scenario`` discovers subjects through the experiment registry.

Rule catalog: ``docs/static_analysis.md``.
"""

from repro.lint.audit import (
    AUDIT_COMM_RULES,
    AUDIT_RULES,
    TransformationAudit,
)
from repro.lint.comm_rules import COMM_RULES, lint_comm_plan
from repro.lint.dsl_rules import DSL_RULES, lint_stencil
from repro.lint.findings import (
    KNOWN_RULES,
    SEVERITIES,
    LintFinding,
    SuppressionIndex,
    UnknownRuleWarning,
    apply_suppressions,
    max_severity,
    parse_suppressions,
    register_rules,
    sort_findings,
)
from repro.lint.plan_ir import (
    CommPlan,
    ComputeOp,
    ExchangeDecl,
    ExchangeOp,
    FinishOp,
    AdvanceOp,
    MessageEdge,
    StartOp,
    compute_op_from_sdfg,
    compute_op_from_stencils,
    edges_from_schedule,
    ring_edges,
)
from repro.lint.runtime_rules import (
    RUNTIME_RULES,
    BufferEvent,
    lint_buffer_events,
    lint_compiled_plan,
    record_buffer_events,
)
from repro.lint.sdfg_rules import SDFG_RULES, lint_sdfg

__all__ = [
    "AUDIT_COMM_RULES",
    "AUDIT_RULES",
    "AdvanceOp",
    "BufferEvent",
    "COMM_RULES",
    "CommPlan",
    "ComputeOp",
    "DSL_RULES",
    "ExchangeDecl",
    "ExchangeOp",
    "FinishOp",
    "KNOWN_RULES",
    "LintFinding",
    "MessageEdge",
    "RUNTIME_RULES",
    "SDFG_RULES",
    "SEVERITIES",
    "StartOp",
    "SuppressionIndex",
    "TransformationAudit",
    "UnknownRuleWarning",
    "apply_suppressions",
    "compute_op_from_sdfg",
    "compute_op_from_stencils",
    "edges_from_schedule",
    "lint_buffer_events",
    "lint_comm_plan",
    "lint_compiled_plan",
    "lint_sdfg",
    "lint_stencil",
    "max_severity",
    "parse_suppressions",
    "record_buffer_events",
    "register_rules",
    "ring_edges",
    "sort_findings",
]
