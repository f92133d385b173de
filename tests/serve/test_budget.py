"""Deadline budgets on a fake clock, and the retry budget's bound."""

import pytest

from repro.serve import (
    DeadlineBudget,
    DeadlineExceeded,
    ForecastService,
    ServiceConfig,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_budget_tracks_elapsed_and_remaining():
    clock = FakeClock()
    budget = DeadlineBudget(10.0, request_id=7, clock=clock)
    assert budget.remaining() == pytest.approx(10.0)
    clock.advance(4.0)
    assert budget.elapsed() == pytest.approx(4.0)
    assert budget.remaining() == pytest.approx(6.0)
    assert not budget.exhausted
    assert budget.check() == pytest.approx(6.0)


def test_budget_check_raises_typed_error_with_phase_breakdown():
    clock = FakeClock()
    budget = DeadlineBudget(5.0, request_id=3, clock=clock)
    with budget.phase("warm"):
        clock.advance(2.0)
    with pytest.raises(DeadlineExceeded) as exc_info:
        with budget.phase("steps"):
            clock.advance(4.0)
            budget.check()
    err = exc_info.value
    assert err.request_id == 3
    assert err.phase == "steps"
    assert err.phases["warm"] == pytest.approx(2.0)
    assert err.phases["steps"] == pytest.approx(4.0)
    assert "steps" in str(err) and "5.000s" in str(err)


def test_budget_phases_accumulate_and_charge_attributes_external_time():
    clock = FakeClock()
    budget = DeadlineBudget(None, clock=clock)
    budget.charge("queue", 1.5)
    for _ in range(3):
        with budget.phase("steps"):
            clock.advance(0.5)
    assert budget.phases["queue"] == pytest.approx(1.5)
    assert budget.phases["steps"] == pytest.approx(1.5)
    # None deadline never trips, however much time passes
    clock.advance(1e9)
    assert budget.check() == float("inf")
    assert not budget.exhausted


def test_budget_rejects_nonpositive_deadline():
    with pytest.raises(ValueError, match="positive"):
        DeadlineBudget(0.0)
    with pytest.raises(ValueError, match="positive"):
        DeadlineBudget(-1.0)


def test_retry_policy_rejects_negative_retries():
    with pytest.raises(ValueError, match="max_retries"):
        ForecastService(ServiceConfig(max_retries=-1))
