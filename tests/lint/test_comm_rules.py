"""C3xx communication-protocol rules over CommPlans.

The regression that motivates this layer is PR 5's cross-thread repack
race: two split exchanges in flight at once on the same ``fslot_base``
tag slots, so one exchange's repack could consume the other's messages.
That bug class is now a static error (C302) caught before a single
message is posted, and the seeded-deadlock / asymmetric-schedule
variants are caught the same way.
"""

import pytest

from repro.fv3.halo import HaloUpdater
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.lint import (
    CommPlan,
    ComputeOp,
    ExchangeDecl,
    lint_comm_plan,
)
from repro.lint.plan_ir import (
    AdvanceOp,
    ExchangeOp,
    FinishOp,
    StartOp,
    halo_extent,
    ring_edges,
)


def _rules(findings):
    return sorted(f.rule for f in findings)


def _errors(findings):
    return [f for f in findings if f.severity == "error"]


def _spmd(program, exchanges, n_ranks=2, name="plan"):
    return CommPlan.spmd(
        name, n_ranks, exchanges, program, ring_edges(n_ranks)
    )


EX_A = ExchangeDecl("a", ("u",), fslot_base=0)
EX_B = ExchangeDecl("b", ("v",), fslot_base=1)
COMPUTE = ComputeOp("interior", reads={}, writes={})


# ---------------------------------------------------------------------------
# C301 — send/recv matching
# ---------------------------------------------------------------------------


def test_clean_start_finish_pair_passes():
    plan = _spmd([StartOp("a"), COMPUTE, FinishOp("a")], (EX_A,))
    assert lint_comm_plan(plan) == []


def test_undeclared_exchange_is_c301():
    plan = _spmd([StartOp("ghost"), COMPUTE, FinishOp("ghost")], (EX_A,))
    findings = _errors(lint_comm_plan(plan))
    assert _rules(findings) == ["C301", "C301"]
    assert "undeclared exchange" in findings[0].message


def test_started_never_finished_is_c301():
    plan = _spmd([StartOp("a"), COMPUTE], (EX_A,))
    (f,) = _errors(lint_comm_plan(plan))
    assert f.rule == "C301"
    assert "never finished" in f.message


def test_finish_without_start_is_c301():
    plan = _spmd([FinishOp("a")], (EX_A,))
    (f,) = _errors(lint_comm_plan(plan))
    assert f.rule == "C301"
    assert "not in flight" in f.message


def test_double_start_is_c301():
    plan = _spmd(
        [StartOp("a"), COMPUTE, StartOp("a"), FinishOp("a")], (EX_A,)
    )
    findings = _errors(lint_comm_plan(plan, rules=("C301",)))
    assert findings and all(f.rule == "C301" for f in findings)


def test_advance_without_start_is_c301():
    plan = _spmd([AdvanceOp("a")], (EX_A,))
    findings = _errors(lint_comm_plan(plan, rules=("C301",)))
    assert findings and "advance" in findings[0].message


def test_asymmetric_starter_is_c301():
    # rank 1 participates in the ring topology but never runs the
    # exchange: rank 0's receives from it can only time out
    plan = CommPlan(
        "asym",
        2,
        (EX_A,),
        ((StartOp("a"), COMPUTE, FinishOp("a")), (COMPUTE,)),
        ring_edges(2),
    )
    findings = _errors(lint_comm_plan(plan, rules=("C301",)))
    assert len(findings) == 1
    assert "rank 1 never starts exchange 'a'" in findings[0].message


# ---------------------------------------------------------------------------
# C302 — tag-slot collisions (the PR-5 repack race, as a regression)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def halo():
    return HaloUpdater(CubedSpherePartitioner(12, 1), n_halo=3)


def _acoustic_like_program():
    """The overlap sub-step's op order: winds and scalars concurrently
    in flight, compute inside both windows."""
    return (
        StartOp("winds"),
        ComputeOp("riemann", reads={}, writes={}),
        StartOp("scalars"),
        AdvanceOp("winds"),
        AdvanceOp("scalars"),
        FinishOp("winds"),
        ComputeOp("c_sw", reads={}, writes={}),
        FinishOp("scalars"),
    )


def test_pr5_repack_race_is_c302_error(halo):
    """Regression: PR 5's cross-thread repack race was exactly this —
    the scalar exchange flying on the same tag slots as the in-flight
    wind exchange, so one exchange's repack consumed the other's
    messages. The buggy slot assignment must be a static error."""
    winds = ExchangeDecl("winds", ("u", "v"), fslot_base=0, vector=True)
    scalars = ExchangeDecl(
        "scalars", ("delp", "pt", "w"), fslot_base=0  # the bug
    )
    plan = CommPlan.spmd(
        "acoustics.buggy",
        halo.partitioner.total_ranks,
        (winds, scalars),
        _acoustic_like_program(),
        halo.comm_schedule(),
    )
    findings = [f for f in lint_comm_plan(plan) if f.rule == "C302"]
    assert len(findings) == 1
    assert findings[0].severity == "error"
    assert "tag slot" in findings[0].message


def test_disjoint_fslots_have_no_c302(halo):
    """The shipped fix: scalars on fslot_base=2, past the two wind
    slots."""
    winds = ExchangeDecl("winds", ("u", "v"), fslot_base=0, vector=True)
    scalars = ExchangeDecl("scalars", ("delp", "pt", "w"), fslot_base=2)
    plan = CommPlan.spmd(
        "acoustics.fixed",
        halo.partitioner.total_ranks,
        (winds, scalars),
        _acoustic_like_program(),
        halo.comm_schedule(),
    )
    assert not [f for f in lint_comm_plan(plan) if f.rule == "C302"]


def test_sequential_windows_reuse_slots_without_c302():
    # same fslot_base is fine when the windows never overlap in time
    ex_b0 = ExchangeDecl("b", ("v",), fslot_base=0)
    plan = _spmd(
        [StartOp("a"), COMPUTE, FinishOp("a"),
         StartOp("b"), COMPUTE, FinishOp("b")],
        (EX_A, ex_b0),
    )
    assert lint_comm_plan(plan) == []


# ---------------------------------------------------------------------------
# C303 — deadlock
# ---------------------------------------------------------------------------


def test_seeded_deadlock_is_flagged_before_execution():
    """Two ranks running the exchanges in opposite order: each blocks in
    its first finish waiting for a send the other only posts after its
    own first finish — the classic cyclic wait, caught statically."""
    p0 = (StartOp("a"), COMPUTE, FinishOp("a"),
          StartOp("b"), COMPUTE, FinishOp("b"))
    p1 = (StartOp("b"), COMPUTE, FinishOp("b"),
          StartOp("a"), COMPUTE, FinishOp("a"))
    plan = CommPlan("dead", 2, (EX_A, EX_B), (p0, p1), ring_edges(2))
    findings = [f for f in lint_comm_plan(plan) if f.rule == "C303"]
    assert len(findings) == 1
    assert findings[0].severity == "error"
    assert "deadlock" in findings[0].message


def test_spmd_schedule_never_deadlocks():
    plan = _spmd(
        [StartOp("a"), COMPUTE, FinishOp("a"),
         StartOp("b"), COMPUTE, FinishOp("b")],
        (EX_A, EX_B),
        n_ranks=4,
    )
    assert not [f for f in lint_comm_plan(plan) if f.rule == "C303"]


def test_pipelined_advance_order_is_deadlock_free():
    plan = _spmd(list(_acoustic_like_program()), (
        ExchangeDecl("winds", ("u", "v"), fslot_base=0, vector=True),
        ExchangeDecl("scalars", ("delp", "pt", "w"), fslot_base=2),
    ), n_ranks=4)
    assert not [f for f in lint_comm_plan(plan) if f.rule == "C303"]


# ---------------------------------------------------------------------------
# C304 / C305 — overlap windows
# ---------------------------------------------------------------------------


def test_halo_read_of_in_flight_field_is_c304_error():
    op = ComputeOp("stencil", reads={"u": halo_extent(1)}, writes={})
    plan = _spmd([StartOp("a"), op, FinishOp("a")], (EX_A,))
    (f,) = _errors(lint_comm_plan(plan))
    assert f.rule == "C304"
    assert "reads the halo" in f.message


def test_halo_write_of_in_flight_field_is_c304_error():
    op = ComputeOp("stencil", reads={}, writes={"u": halo_extent(2)})
    plan = _spmd([StartOp("a"), op, FinishOp("a")], (EX_A,))
    (f,) = _errors(lint_comm_plan(plan))
    assert f.rule == "C304"


def test_interior_write_of_in_flight_field_is_c304_warning():
    # the scatter only touches halo cells, so an interior write does not
    # corrupt the exchange — but it is fragile enough to warn about
    op = ComputeOp("stencil", reads={}, writes={"u": halo_extent(0)})
    plan = _spmd([StartOp("a"), op, FinishOp("a")], (EX_A,))
    findings = [f for f in lint_comm_plan(plan) if f.rule == "C304"]
    assert len(findings) == 1
    assert findings[0].severity == "warning"


def test_compute_outside_window_is_clean():
    op = ComputeOp("stencil", reads={"u": halo_extent(3)},
                   writes={"u": halo_extent(0)})
    plan = _spmd(
        [StartOp("a"), COMPUTE, FinishOp("a"), op], (EX_A,)
    )
    assert lint_comm_plan(plan) == []


def test_empty_window_is_c305_warning():
    plan = _spmd([StartOp("a"), FinishOp("a"), COMPUTE], (EX_A,))
    (f,) = lint_comm_plan(plan)
    assert (f.rule, f.severity) == ("C305", "warning")


def test_whole_exchange_is_checked_as_its_three_ops():
    """An ExchangeOp opens no window (no C305), but it is a start and a
    finish for every other rule: inside its own window it is a double
    start, and two ranks running two whole exchanges in opposite order
    deadlock."""
    assert lint_comm_plan(_spmd([ExchangeOp("a"), COMPUTE], (EX_A,))) == []
    nested = _spmd([StartOp("a"), COMPUTE, ExchangeOp("a"), FinishOp("a")],
                   (EX_A,))
    assert "C301" in _rules(_errors(lint_comm_plan(nested)))
    crossed = CommPlan(
        "crossed", 2, (EX_A, EX_B),
        ((ExchangeOp("a"), ExchangeOp("b")),
         (ExchangeOp("b"), ExchangeOp("a"))),
        ring_edges(2),
    )
    assert _rules(lint_comm_plan(crossed)) == ["C303"]


def test_tracer_exchange_plan_is_clean():
    """The tracer advection's schedule — one whole exchange of δp and
    the tracers on tag slot 0, then the advection — over the real
    6-rank topology: every exchange a step runs is declared and clean."""
    from repro.fv3 import dyncore

    (plan,) = dyncore.build_comm_plans()
    assert plan.name == "dyncore.tracer_advection"
    assert plan.exchange("tracers").fslots == (0,)
    assert lint_comm_plan(plan) == []


def test_rule_filter_limits_output():
    plan = _spmd([StartOp("a"), FinishOp("a")], (EX_A,))
    assert _rules(lint_comm_plan(plan)) == ["C305"]
    assert lint_comm_plan(plan, rules=("C304",)) == []


# ---------------------------------------------------------------------------
# The shipped acoustic plan (acceptance)
# ---------------------------------------------------------------------------


def test_acoustic_overlap_plan_is_clean():
    from repro.fv3.acoustics import acoustic_comm_plan

    plan = acoustic_comm_plan()
    assert plan.name == "acoustics.substep"
    assert lint_comm_plan(plan) == []


@pytest.mark.parametrize("executor", ["sequential", "threads"])
def test_core_acoustic_plan_has_no_errors_on_any_executor(executor):
    """The real core's declared schedule is finding-free however its
    rank bodies are scheduled: one ordering, verified against the
    core's own halo topology."""
    from repro.run.driver import build_core
    from repro.scenarios import get_scenario

    scen = get_scenario("baroclinic_wave")
    core = build_core(
        "baroclinic_wave",
        scen.default_config(npx=12, npz=4),
        executor=executor,
        workers=2,
    )
    try:
        core.prepare()
        assert lint_comm_plan(core.acoustics.comm_plan()) == []
    finally:
        core.finalize()
        core.executor.shutdown()
