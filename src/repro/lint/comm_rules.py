"""Communication-protocol rules (C3xx) over :class:`~repro.lint.plan_ir.CommPlan`.

The split halo pipeline makes four properties the programmer's problem;
these rules give them back to the toolchain:

- **C301 send-recv-mismatch** — every rank must run a complete
  ``start → [advance] → finish`` lifecycle for each exchange, and every
  rank a peer waits on must actually start the exchange (a receive with
  no matching send is a guaranteed timeout).
- **C302 tag-slot-collision** — two exchanges in flight concurrently on
  one rank must occupy disjoint ``fslot`` tag slots, or a repack for the
  second exchange overwrites the first one's in-flight payload (the PR-5
  cross-thread repack race, caught statically).
- **C303 deadlock** — wait-for cycle detection over the global event
  graph of posts and waits: a schedule where every message eventually
  exists but ranks block on each other in a cycle is flagged before
  execution.
- **C304 overlap-hazard** — a compute op inside an exchange's in-flight
  window must not touch the halo of an exchanged field (reads observe
  half-filled halos, writes race the scatter); interior writes to an
  in-flight field are a warning (they change what a later phase packs).
- **C305 exposed-window** — a window with no compute inside hides
  nothing; the split API is pure overhead there (declare the exchange
  whole, an :class:`~repro.lint.plan_ir.ExchangeOp`, or move work into
  the window).

An ``ExchangeOp`` is checked as its start, advance and finish back to
back by every rule but C304/C305, for which it opens no window.

Entry point: :func:`lint_comm_plan`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import LintFinding, register_rules
from repro.lint.plan_ir import (
    AdvanceOp,
    CommPlan,
    ComputeOp,
    ExchangeDecl,
    ExchangeOp,
    FinishOp,
    StartOp,
)

__all__ = ["COMM_RULES", "lint_comm_plan"]

#: Rule id -> rule name, the C3xx catalog.
COMM_RULES = {
    "C301": "send-recv-mismatch",
    "C302": "tag-slot-collision",
    "C303": "deadlock",
    "C304": "overlap-hazard",
    "C305": "exposed-window",
}

register_rules(COMM_RULES)


def _ranks_str(ranks: Sequence[int]) -> str:
    ranks = sorted(set(ranks))
    if len(ranks) == 1:
        return f"rank {ranks[0]}"
    if ranks == list(range(ranks[0], ranks[-1] + 1)) and len(ranks) > 2:
        return f"ranks {ranks[0]}–{ranks[-1]}"
    return "ranks " + ", ".join(str(r) for r in ranks)


def _finding(rule: str, severity: str, plan: CommPlan, message: str,
             location, hint: Optional[str] = None) -> LintFinding:
    return LintFinding(
        rule=rule,
        name=COMM_RULES[rule],
        severity=severity,
        subject=plan.name,
        message=message,
        location=location,
        hint=hint,
    )


def _expanded(program) -> Tuple:
    """``program`` with every ExchangeOp as its start/advance/finish."""
    out = []
    for op in program:
        out.extend(op.expand() if isinstance(op, ExchangeOp) else (op,))
    return tuple(out)


def _grouped_programs(plan: CommPlan):
    """(program, ranks) pairs — SPMD plans share one program object, so
    rank-local rules run once per distinct program, not once per rank."""
    groups: List[Tuple[Tuple, List[int]]] = []
    for rank, program in enumerate(plan.programs):
        for prog, ranks in groups:
            if prog == program:
                ranks.append(rank)
                break
        else:
            groups.append((program, [rank]))
    return groups


# ---------------------------------------------------------------------------
# C301 — lifecycle and cross-rank symmetry
# ---------------------------------------------------------------------------


def _rule_lifecycle(plan: CommPlan, program, ranks) -> Iterable[LintFinding]:
    known = {x.name for x in plan.exchanges}
    #: None = not in flight; 0 = started; 1 = advanced
    state: Dict[str, Optional[int]] = {}
    last_op: Dict[str, object] = {}
    who = _ranks_str(ranks)
    for op in program:
        if isinstance(op, ComputeOp):
            continue
        x = op.exchange
        if x not in known:
            yield _finding(
                "C301", "error", plan,
                f"{who}: op references undeclared exchange {x!r}",
                op.location,
                hint="declare the exchange (fields + fslot_base) in the plan",
            )
            continue
        cur = state.get(x)
        if isinstance(op, StartOp):
            if cur is not None:
                yield _finding(
                    "C301", "error", plan,
                    f"{who}: exchange {x!r} is started again while still "
                    "in flight; its pack buffers and tag slots are reused "
                    "under the live messages",
                    op.location,
                    hint="finish the exchange before restarting it, or use "
                         "a second exchange on disjoint fslots",
                )
            state[x] = 0
        elif isinstance(op, AdvanceOp):
            if cur is None:
                yield _finding(
                    "C301", "error", plan,
                    f"{who}: advance() on exchange {x!r} which was never "
                    "started",
                    op.location,
                    hint="call start_* before advance",
                )
            elif cur == 1:
                yield _finding(
                    "C301", "error", plan,
                    f"{who}: advance() called twice on exchange {x!r} "
                    "(phase 1 is already posted)",
                    op.location,
                    hint="advance at most once between start and finish",
                )
            else:
                state[x] = 1
        elif isinstance(op, FinishOp):
            if cur is None:
                yield _finding(
                    "C301", "error", plan,
                    f"{who}: finish() on exchange {x!r} which is not in "
                    "flight",
                    op.location,
                    hint="every finish must pair with exactly one start",
                )
            else:
                state[x] = None
        last_op[x] = op
    for x, cur in state.items():
        if cur is not None:
            op = last_op[x]
            yield _finding(
                "C301", "error", plan,
                f"{who}: exchange {x!r} is started but never finished; "
                "its peers' receives wait forever and its messages leak "
                "into the mailbox",
                op.location,
                hint="pair every start_* with a finish_*",
            )


def _starters(plan: CommPlan) -> Dict[str, Set[int]]:
    """Exchange name -> set of ranks whose program starts it."""
    out: Dict[str, Set[int]] = {x.name: set() for x in plan.exchanges}
    for rank, program in enumerate(plan.programs):
        for op in program:
            if isinstance(op, StartOp) and op.exchange in out:
                out[op.exchange].add(rank)
    return out


def _rule_symmetry(plan: CommPlan) -> Iterable[LintFinding]:
    """C301 (cross-rank): a rank that participates in an exchange's
    message topology must start the exchange, or its peers' receives
    never match a send."""
    starters = _starters(plan)
    for x in plan.exchanges:
        started = starters[x.name]
        if not started:
            continue
        missing: Dict[int, Set[int]] = {}
        for r in started:
            for phase in (0, 1):
                for src in plan.sources_of(r, phase):
                    if src not in started:
                        missing.setdefault(src, set()).add(r)
        for src in sorted(missing):
            ranks = sorted(missing[src])
            waiters = _ranks_str(ranks)
            verb = "waits" if len(ranks) == 1 else "wait"
            # anchor to the start op of one waiting rank
            loc = next(
                op.location
                for op in plan.programs[min(missing[src])]
                if isinstance(op, StartOp) and op.exchange == x.name
            )
            yield _finding(
                "C301", "error", plan,
                f"rank {src} never starts exchange {x.name!r}, but "
                f"{waiters} {verb} for its sends; the receive can only "
                "time out",
                loc,
                hint="every rank in the message topology must run the "
                     "same start/finish sequence (SPMD)",
            )


# ---------------------------------------------------------------------------
# C302 — tag-slot collisions between concurrent exchanges
# ---------------------------------------------------------------------------


def _rule_slot_collision(plan, program, ranks) -> Iterable[LintFinding]:
    live: Dict[str, ExchangeDecl] = {}
    reported: Set[Tuple[str, str]] = set()
    who = _ranks_str(ranks)
    for op in program:
        if isinstance(op, StartOp):
            try:
                decl = plan.exchange(op.exchange)
            except KeyError:
                continue  # undeclared: C301's finding
            for other in live.values():
                shared = set(decl.fslots) & set(other.fslots)
                pair = tuple(sorted((decl.name, other.name)))
                if shared and pair not in reported:
                    reported.add(pair)
                    slots = ", ".join(str(s) for s in sorted(shared))
                    yield _finding(
                        "C302", "error", plan,
                        f"{who}: exchanges {other.name!r} and "
                        f"{decl.name!r} are in flight concurrently but "
                        f"share tag slot(s) {slots}; repacking the second "
                        "exchange's messages overwrites the first one's "
                        "in-flight payload (the PR-5 repack race)",
                        op.location,
                        hint="give the second exchange a disjoint "
                             "fslot_base (e.g. past the first exchange's "
                             "field count)",
                    )
            live[decl.name] = decl
        elif isinstance(op, FinishOp):
            live.pop(op.exchange, None)
    return


# ---------------------------------------------------------------------------
# C303 — deadlock (wait-for cycles over the global event graph)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Event:
    rank: int
    kind: str  # "post" | "wait"
    exchange: str
    phase: int
    op: object


def _rank_events(program) -> List[_Event]:
    """Post/wait events of one rank's program, in execution order.

    Lifecycle-invalid ops (caught by C301) are skipped so the deadlock
    analysis never double-reports them.
    """
    events: List[_Event] = []
    state: Dict[str, int] = {}

    def emit(kind, x, phase, op):
        events.append(_Event(-1, kind, x, phase, op))

    for op in program:
        if isinstance(op, StartOp):
            if op.exchange in state:
                continue
            state[op.exchange] = 0
            emit("post", op.exchange, 0, op)
        elif isinstance(op, AdvanceOp):
            if state.get(op.exchange) != 0:
                continue
            state[op.exchange] = 1
            emit("wait", op.exchange, 0, op)
            emit("post", op.exchange, 1, op)
        elif isinstance(op, FinishOp):
            cur = state.pop(op.exchange, None)
            if cur is None:
                continue
            if cur == 0:
                emit("wait", op.exchange, 0, op)
                emit("post", op.exchange, 1, op)
            emit("wait", op.exchange, 1, op)
    return events


def _rule_deadlock(plan: CommPlan) -> Iterable[LintFinding]:
    events: List[_Event] = []
    index: Dict[Tuple[int, str, str, int], int] = {}
    for rank, program in enumerate(plan.programs):
        for ev in _rank_events(program):
            ev.rank = rank
            # first post/wait wins for the dependency lookup; duplicates
            # (two windows of the same exchange in sequence) resolve to
            # the earliest, which is conservative for cycle detection
            index.setdefault((rank, ev.kind, ev.exchange, ev.phase),
                             len(events))
            events.append(ev)

    n = len(events)
    deps: List[List[int]] = [[] for _ in range(n)]
    prev_by_rank: Dict[int, int] = {}
    for i, ev in enumerate(events):
        prev = prev_by_rank.get(ev.rank)
        if prev is not None:
            deps[i].append(prev)
        prev_by_rank[ev.rank] = i
        if ev.kind == "wait":
            for src in plan.sources_of(ev.rank, ev.phase):
                j = index.get((src, "post", ev.exchange, ev.phase))
                if j is not None:
                    deps[i].append(j)
                # a missing peer post is a C301 symmetry/lifecycle
                # finding, not a cycle — treated as satisfied here

    # Kahn's algorithm over the dependency graph
    dependents: List[List[int]] = [[] for _ in range(n)]
    pending = [0] * n
    for i, ds in enumerate(deps):
        pending[i] = len(ds)
        for d in ds:
            dependents[d].append(i)
    ready = [i for i in range(n) if pending[i] == 0]
    done = 0
    while ready:
        i = ready.pop()
        done += 1
        for j in dependents[i]:
            pending[j] -= 1
            if pending[j] == 0:
                ready.append(j)
    if done == n:
        return

    stuck = [events[i] for i in range(n) if pending[i] > 0]
    waits = [ev for ev in stuck if ev.kind == "wait"]
    detail = "; ".join(
        f"rank {ev.rank} blocks in {ev.exchange!r} phase {ev.phase}"
        for ev in waits[:4]
    )
    more = len(waits) - 4
    if more > 0:
        detail += f"; … {more} more"
    anchor = waits[0] if waits else stuck[0]
    yield _finding(
        "C303", "error", plan,
        f"the schedule deadlocks: {_ranks_str([ev.rank for ev in stuck])} "
        f"wait on each other in a cycle ({detail})",
        anchor.op.location,
        hint="order exchanges identically on every rank; a blocked wait "
             "can only complete if the peer's matching start/advance is "
             "not behind a wait on this rank",
    )


# ---------------------------------------------------------------------------
# C304 / C305 — window contents
# ---------------------------------------------------------------------------


def _rule_windows(plan, program, ranks) -> Iterable[LintFinding]:
    live: Dict[str, StartOp] = {}
    had_compute: Dict[str, bool] = {}
    who = _ranks_str(ranks)
    for op in program:
        if isinstance(op, StartOp):
            live[op.exchange] = op
            had_compute[op.exchange] = False
        elif isinstance(op, FinishOp):
            start = live.pop(op.exchange, None)
            if start is None:
                continue
            if not had_compute.pop(op.exchange, True):
                yield _finding(
                    "C305", "warning", plan,
                    f"{who}: the window of exchange {op.exchange!r} "
                    "contains no compute — the split start/finish hides "
                    "no latency here",
                    start.location,
                    hint="move independent compute between start and "
                         "finish, or declare the exchange whole "
                         "(ExchangeOp)",
                )
        elif isinstance(op, ComputeOp):
            for x in live:
                had_compute[x] = True
            for xname, start in live.items():
                try:
                    decl = plan.exchange(xname)
                except KeyError:
                    continue
                for f in decl.fields:
                    r = op.reads.get(f)
                    if r is not None and r.halo_width > 0:
                        yield _finding(
                            "C304", "error", plan,
                            f"{who}: compute {op.name!r} reads the halo "
                            f"of {f!r} (extent {r.halo_width}) while "
                            f"exchange {xname!r} is still in flight; the "
                            "halo cells are not filled yet",
                            op.location,
                            hint=f"finish exchange {xname!r} before this "
                                 "compute, or restrict it to fields not "
                                 "in flight",
                        )
                    w = op.writes.get(f)
                    if w is None:
                        continue
                    if w.halo_width > 0:
                        yield _finding(
                            "C304", "error", plan,
                            f"{who}: compute {op.name!r} writes the halo "
                            f"of {f!r} while exchange {xname!r} is "
                            "scattering received cells into it",
                            op.location,
                            hint=f"finish exchange {xname!r} first; "
                                 "concurrent scatter and write race",
                        )
                    else:
                        yield _finding(
                            "C304", "warning", plan,
                            f"{who}: compute {op.name!r} writes the "
                            f"interior of {f!r} while exchange {xname!r} "
                            "is in flight; a later phase packs from the "
                            "interior, so the exchanged halos may mix "
                            "old and new values",
                            op.location,
                            hint="start the exchange after the last "
                                 "interior write to its fields",
                        )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def lint_comm_plan(
    plan: CommPlan, rules: Optional[Sequence[str]] = None
) -> List[LintFinding]:
    """Run every C3xx rule on a communication plan.

    ``rules`` restricts the run to a subset of rule ids (audit use).
    """
    findings: List[LintFinding] = []
    groups = _grouped_programs(plan)
    for program, ranks in groups:
        expanded = _expanded(program)
        findings.extend(_rule_lifecycle(plan, expanded, ranks))
        findings.extend(_rule_slot_collision(plan, expanded, ranks))
        findings.extend(_rule_windows(plan, program, ranks))
    flat = dataclasses.replace(
        plan, programs=tuple(_expanded(p) for p in plan.programs)
    )
    findings.extend(_rule_symmetry(flat))
    findings.extend(_rule_deadlock(flat))
    if rules is not None:
        wanted = set(rules)
        findings = [f for f in findings if f.rule in wanted]
    return findings
