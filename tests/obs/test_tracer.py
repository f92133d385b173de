"""Tracer semantics: nesting, aggregation, no-op path, report/export."""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.machine import HASWELL
from repro.dsl import Field, PARALLEL, computation, interval, stencil
from repro.obs.tracer import _NULL_SPAN, Span, Tracer


# ---------------------------------------------------------------------------
# span recording
# ---------------------------------------------------------------------------
def test_disabled_span_is_shared_noop():
    tracer = Tracer("t", enabled=False)
    a = tracer.span("x")
    b = tracer.span("y")
    assert a is b is _NULL_SPAN
    with a as sp:
        sp.set("k", 1)
        sp.add("n", 2)
    assert not tracer.root.children  # nothing recorded


def test_span_nesting_aggregates_by_parent_and_name():
    tracer = Tracer("t", enabled=True)
    for _ in range(3):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
    assert set(tracer.root.children) == {"outer"}
    outer = tracer.root.children["outer"]
    assert outer.count == 3
    assert set(outer.children) == {"inner"}
    inner = outer.children["inner"]
    assert inner.count == 6  # 2 entries x 3 outer calls, one node
    assert outer.total_seconds >= inner.total_seconds >= 0.0


def test_same_name_under_different_parents_is_distinct():
    tracer = Tracer("t", enabled=True)
    with tracer.span("a"):
        with tracer.span("leaf"):
            pass
    with tracer.span("b"):
        with tracer.span("leaf"):
            pass
    assert tracer.root.children["a"].children["leaf"].count == 1
    assert tracer.root.children["b"].children["leaf"].count == 1


def test_attrs_set_overwrites_and_add_accumulates():
    tracer = Tracer("t", enabled=True)
    for backend in ("numpy", "dataflow"):
        with tracer.span("s") as sp:
            sp.set("backend", backend)
            sp.add("bytes", 100)
    node = tracer.root.children["s"]
    assert node.attrs["backend"] == "dataflow"
    assert node.attrs["bytes"] == 200


def test_self_seconds_excludes_children():
    parent = Span("p")
    parent.total_seconds = 1.0
    parent.child("a").total_seconds = 0.3
    parent.child("b").total_seconds = 0.25
    assert parent.self_seconds == pytest.approx(0.45)


def test_env_toggle_controls_default_enabled(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert Tracer("t").enabled
    monkeypatch.setenv("REPRO_TRACE", "off")
    assert not Tracer("t").enabled
    monkeypatch.delenv("REPRO_TRACE")
    assert not Tracer("t").enabled
    assert Tracer("t", enabled=True).enabled  # explicit flag wins


def test_reset_drops_spans_but_keeps_switch():
    tracer = Tracer("t", enabled=True)
    with tracer.span("x"):
        pass
    tracer.reset()
    assert tracer.enabled
    assert not tracer.root.children
    assert tracer.current is tracer.root


def test_timed_measures_even_when_disabled():
    tracer = Tracer("t", enabled=False)
    with tracer.timed("work") as t:
        time.sleep(0.005)
    assert t.seconds >= 0.004
    assert t.span is None  # not recorded
    assert not tracer.root.children

    tracer.enable()
    with tracer.timed("work") as t:
        pass
    assert isinstance(t.span, Span)
    assert tracer.root.children["work"].count == 1


@pytest.mark.traced
def test_traced_marker_enables_default_tracer():
    assert obs.enabled()
    with obs.span("marked") as sp:
        sp.add("n", 1)
    assert obs.get_tracer().root.children["marked"].attrs["n"] == 1


def test_get_tracer_registry_is_process_wide():
    assert obs.get_tracer("some-other") is obs.get_tracer("some-other")
    assert obs.get_tracer() is obs.get_tracer("repro")


# ---------------------------------------------------------------------------
# report and export
# ---------------------------------------------------------------------------
def _sample_tracer():
    tracer = Tracer("sample", enabled=True)
    with tracer.span("step") as sp:
        sp.add("bytes", 8_000_000_000)  # 8 GB
        with tracer.span("halo") as h:
            h.add("messages", 12)
    # pin times for deterministic derived numbers
    tracer.root.children["step"].total_seconds = 1.0
    return tracer


def test_report_renders_tree_counts_and_bandwidth():
    tracer = _sample_tracer()
    text = obs.report(tracer, machine=HASWELL)
    assert "sample" in text and HASWELL.name in text
    assert "step" in text and "  halo" in text  # child indented
    assert "8.00GB/s" in text  # 8 GB in 1 s
    pct = 100 * 8e9 / HASWELL.achievable_bandwidth
    assert f"{pct:.1f}%" in text
    assert "messages=12" in text


def test_report_without_spans_explains_how_to_enable():
    text = obs.report(Tracer("empty", enabled=True))
    assert "REPRO_TRACE=1" in text


def test_to_json_round_trips():
    tracer = _sample_tracer()
    payload = json.loads(obs.to_json(tracer))
    assert payload["tracer"] == "sample"
    assert payload["machine"] == obs.observed_machine().name
    (step,) = payload["spans"]
    assert step["name"] == "step"
    assert step["count"] == 1
    assert step["attrs"]["bytes"] == 8_000_000_000
    (halo,) = step["children"]
    assert halo["attrs"] == {"messages": 12}
    assert step["self_seconds"] <= step["total_seconds"]


def test_snapshot_is_a_plain_copy():
    tracer = _sample_tracer()
    snap = obs.snapshot(tracer.root.children["step"])
    tracer.root.children["step"].attrs["bytes"] = 0
    assert snap["attrs"]["bytes"] == 8_000_000_000  # detached


# ---------------------------------------------------------------------------
# tracing must not change numerics
# ---------------------------------------------------------------------------
@stencil
def _lap(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = a[-1, 0, 0] + a[1, 0, 0] + a[0, -1, 0] + a[0, 1, 0] - 4.0 * a


def _run_lap():
    a = np.random.default_rng(7).random((10, 10, 4))
    out = np.zeros_like(a)
    _lap(a, out)
    return out


def test_tracing_does_not_change_stencil_numerics():
    tracer = obs.get_tracer()
    saved = (tracer.enabled, tracer.root, tracer._stack)
    try:
        tracer.disable()
        plain = _run_lap()
        tracer.reset()
        tracer.enable()
        traced = _run_lap()
        node = tracer.root.children["stencil._lap"]
        assert node.count == 1
        assert node.attrs["points"] == 8 * 8 * 4
        assert node.attrs["bytes"] > 0
    finally:
        tracer.enabled, tracer.root, tracer._stack = saved
    np.testing.assert_array_equal(plain, traced)
