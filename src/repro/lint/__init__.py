"""repro.lint — semantic static analysis for stencils, SDFGs and plans.

Four layers mirror the toolchain: :func:`lint_stencil` checks what the
user wrote (DSL rules ``D1xx``); :func:`lint_sdfg` checks what the
toolchain is about to execute (SDFG rules ``S2xx``, a race detector over
expanded map scopes); :func:`lint_comm_plan` checks how ranks will talk
(communication-protocol rules ``C3xx`` over a :class:`CommPlan` — the
whole-program send/recv, tag-slot and overlap-window verifier); and
:func:`lint_compiled_plan` checks a compiled plan's scratch lifetimes
(runtime rules ``R4xx`` over its allocation log, through
:func:`lint_buffer_events`).

:class:`TransformationAudit` diffs the SDFG rules across pipeline stages so a transformation that introduces a violation is
named in the report. ``python -m repro.lint <module-or-path>`` runs the
static layers from the shell; ``--comm`` adds the protocol rules and
``--scenario`` discovers subjects through the experiment registry.

Rule catalog: ``docs/static_analysis.md``.
"""

from repro.lint.audit import AUDIT_RULES, TransformationAudit
from repro.lint.comm_rules import COMM_RULES, lint_comm_plan
from repro.lint.dsl_rules import DSL_RULES, lint_stencil
from repro.lint.findings import (
    KNOWN_RULES,
    SEVERITIES,
    LintFinding,
    max_severity,
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
    compute_op_from_stencils,
    edges_from_schedule,
)
from repro.lint.runtime_rules import (
    RUNTIME_RULES,
    BufferEvent,
    lint_buffer_events,
    lint_compiled_plan,
)
from repro.lint.sdfg_rules import SDFG_RULES, lint_sdfg

__all__ = [
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
    "TransformationAudit",
    "compute_op_from_stencils",
    "edges_from_schedule",
    "lint_buffer_events",
    "lint_comm_plan",
    "lint_compiled_plan",
    "lint_sdfg",
    "lint_stencil",
    "max_severity",
    "register_rules",
    "sort_findings",
]
