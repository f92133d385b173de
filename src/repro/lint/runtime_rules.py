"""Buffer-lifetime rules (R4xx) over compiled plans' lifetime logs.

The :class:`~repro.runtime.pool.BufferPool` arena and the compiled-SDFG
memory planner make the hot path allocation-free, at the price of
manual lifetimes: a buffer released too early is recycled under a live
reader, a leaked checkout grows the arena forever, and a pooled scratch
buffer handed to a compiled program as an ``out=`` destination aliases
two owners. These rules verify recorded lifetime traces:

- **R401 use-after-release** — a buffer is used (or scheduled as a
  kernel destination) after it went back to the arena; the next
  checkout it serves aliases it.
- **R402 acquire-release-mismatch** — double acquire of a live buffer,
  or release of a buffer that is not checked out (double release).
- **R403 leaked-arena** — buffers still checked out when the trace ends.
- **R404 scratch-aliasing** — two owners of one piece of storage: a live
  pooled buffer owned by one scope (label/rank) is bound as another
  program's kernel destination, or a compiled program's memory plan
  gives two simultaneously live values overlapping byte intervals of
  its slab.

The trace is the codegen-time alloc/free log of a compiled plan:
:func:`lint_compiled_plan` replays it against the slab layout the
planner derived from it. A compiled program takes one slab per call
and every value it holds is a byte interval of it, so that log is the
whole lifetime story of a call's scratch; :func:`lint_buffer_events`
runs the rules on any event sequence.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import LintFinding, register_rules

__all__ = [
    "RUNTIME_RULES",
    "BufferEvent",
    "lint_buffer_events",
    "lint_compiled_plan",
]

#: Rule id -> rule name, the R4xx catalog.
RUNTIME_RULES = {
    "R401": "use-after-release",
    "R402": "acquire-release-mismatch",
    "R403": "leaked-arena",
    "R404": "scratch-aliasing",
}

register_rules(RUNTIME_RULES)


@dataclasses.dataclass(frozen=True)
class BufferEvent:
    """One lifetime event of one buffer.

    ``buffer`` is a stable identity for the storage (``id()`` of the
    array, or a value index for compiled plans); ``label`` names the
    owning scope (e.g. ``"sdfg:heat:out"``) and ``rank`` the owning rank
    thread, both optional.
    """

    kind: str  # "acquire" | "release" | "use" | "bind"
    buffer: int
    key: Optional[Tuple] = None  # (shape, dtype) when known
    seq: int = 0
    label: Optional[str] = None
    rank: Optional[int] = None

    def describe(self) -> str:
        what = f"buffer {self.buffer:#x}" if self.buffer > 0xFFFF else (
            f"value {self.buffer}"
        )
        if self.key:
            what += f" {self.key[0]}×{self.key[1]}"
        return what


def _finding(rule: str, severity: str, subject: str, message: str,
             hint: Optional[str] = None) -> LintFinding:
    return LintFinding(
        rule=rule,
        name=RUNTIME_RULES[rule],
        severity=severity,
        subject=subject,
        message=message,
        hint=hint,
    )


def _owner(ev: BufferEvent) -> str:
    parts = []
    if ev.label is not None:
        parts.append(ev.label)
    if ev.rank is not None:
        parts.append(f"rank {ev.rank}")
    return " / ".join(parts) or "anonymous scope"


def lint_buffer_events(
    events: Sequence[BufferEvent],
    subject: str = "buffer-trace",
    allow_live_at_end: bool = False,
) -> List[LintFinding]:
    """Run every R4xx rule on a recorded lifetime trace."""
    findings: List[LintFinding] = []
    live: Dict[int, BufferEvent] = {}
    released: Dict[int, BufferEvent] = {}
    for ev in events:
        if ev.kind == "acquire":
            prior = live.get(ev.buffer)
            if prior is not None:
                findings.append(_finding(
                    "R402", "error", subject,
                    f"{ev.describe()} acquired twice without a release "
                    f"(first by {_owner(prior)}, again by {_owner(ev)}); "
                    "two owners now write one allocation",
                    hint="every checkout must be balanced by exactly one "
                         "release before the next checkout of that buffer",
                ))
            live[ev.buffer] = ev
            released.pop(ev.buffer, None)
        elif ev.kind == "release":
            if ev.buffer in live:
                released[ev.buffer] = ev
                del live[ev.buffer]
            else:
                again = ev.buffer in released
                detail = (
                    "released twice" if again
                    else "released without ever being acquired"
                )
                findings.append(_finding(
                    "R402", "error", subject,
                    f"{ev.describe()} {detail}; the arena would hand "
                    "the same storage to two future checkouts",
                    hint="release each buffer exactly once, from the "
                         "scope that checked it out",
                ))
        elif ev.kind in ("use", "bind"):
            rel = released.get(ev.buffer)
            if rel is not None:
                what = (
                    "scheduled as a kernel destination"
                    if ev.kind == "bind" else "used"
                )
                findings.append(_finding(
                    "R401", "error", subject,
                    f"{ev.describe()} is {what} by {_owner(ev)} after "
                    "being released to the arena; the next checkout it "
                    "serves aliases it",
                    hint="keep the buffer checked out for as long as any "
                         "kernel can read or write it",
                ))
            elif ev.kind == "bind":
                owner = live.get(ev.buffer)
                if owner is not None and (
                    owner.label != ev.label or owner.rank != ev.rank
                ):
                    findings.append(_finding(
                        "R404", "error", subject,
                        f"{ev.describe()} is live pooled scratch of "
                        f"{_owner(owner)} but is bound as a kernel "
                        f"destination by {_owner(ev)}; the out=-scheduled "
                        "writes alias storage the pool considers "
                        "single-owner",
                        hint="pass a dedicated array (or a buffer checked "
                             "out by the calling scope) as the kernel "
                             "destination",
                    ))
        else:
            raise ValueError(f"unknown buffer event kind {ev.kind!r}")
    if not allow_live_at_end:
        for ev in live.values():
            findings.append(_finding(
                "R403", "warning", subject,
                f"{ev.describe()} acquired by {_owner(ev)} is still "
                "checked out when the trace ends; the arena never gets "
                "it back",
                hint="release in a finally block, or account for the "
                     "buffer as a deliberate persistent allocation",
            ))
    return findings


def lint_compiled_plan(compiled) -> List[LintFinding]:
    """Check a compiled SDFG's memory plan for lifetime violations.

    Replays the planner's alloc/free log twice over: as a lifetime trace
    of the planned values (R401/R402; values live at the end are
    expected — nothing has to free what the call's release gives back),
    and against the layout — the byte interval of a value must lie inside
    the slab and share no byte with a value that is live at its birth
    (R404: two owners of one piece of storage).
    """
    subject = f"sdfg:{compiled.name}"
    specs = compiled.image.specs
    events = [
        BufferEvent(
            kind="acquire" if kind == "alloc" else "release",
            buffer=idx,
            key=(tuple(specs[idx][0]), str(specs[idx][1])),
            seq=seq,
            label=subject,
        )
        for seq, (kind, idx) in enumerate(compiled.plan_events)
    ]
    findings = lint_buffer_events(events, subject=subject,
                                  allow_live_at_end=True)
    offsets, nbytes = compiled.plan_offsets, compiled.plan_nbytes
    live: Dict[int, BufferEvent] = {}
    for ev in events:
        if ev.kind == "release":
            live.pop(ev.buffer, None)
            continue
        lo, hi = offsets[ev.buffer], offsets[ev.buffer] + nbytes[ev.buffer]
        if hi > compiled.runtime_bytes:
            findings.append(_finding(
                "R404", "error", subject,
                f"{ev.describe()} is laid out at bytes [{lo}, {hi}) of a "
                f"{compiled.runtime_bytes}-byte slab; it reaches into "
                "memory the call never checked out",
                hint="the slab must end no earlier than its highest value",
            ))
        for other in live.values():
            olo = offsets[other.buffer]
            ohi = olo + nbytes[other.buffer]
            if lo < ohi and olo < hi:
                findings.append(_finding(
                    "R404", "error", subject,
                    f"{ev.describe()} at bytes [{lo}, {hi}) is born while "
                    f"{other.describe()} at [{olo}, {ohi}) is live: two "
                    "simultaneously live values share storage",
                    hint="values may share bytes of the slab only when "
                         "their lifetimes are disjoint",
                ))
        live[ev.buffer] = ev
    return findings
