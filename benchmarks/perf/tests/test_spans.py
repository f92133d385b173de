import pytest

from benchmarks.perf import spans


def _span(ident, name, start, end, parent=None):
    return {"id": ident, "name": name, "start": start, "end": end,
            "parent": parent, "workload": "w", "op": None}


def test_self_time_is_duration_minus_direct_children():
    recorded = [
        _span(0, "setup", 0.0, 10.0),
        _span(1, "import", 0.0, 3.0, parent=0),
        _span(2, "build", 3.0, 9.0, parent=0),
        _span(3, "grids", 4.0, 6.0, parent=2),
        _span(4, "step", 10.0, 11.0),
    ]
    per_id = spans.self_times(recorded)
    assert per_id == {0: 1.0, 1: 3.0, 2: 4.0, 3: 2.0, 4: 1.0}
    # self times partition the covered wall time
    assert sum(per_id.values()) == 11.0
    assert spans.self_time_by_name(recorded)["build"] == 4.0


def test_recorder_nests_and_tags_operations():
    rec = spans.Recorder("step_small")
    with rec.span("outer", op=7) as outer:
        with rec.span("inner", op=7) as inner:
            pass
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert {s["workload"] for s in rec.spans} == {"step_small"}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert len(rec.durations("inner")) == 1
    assert sum(spans.self_times(rec.spans).values()) == pytest.approx(
        outer["end"] - outer["start"])


def _node(name, total, count=1, children=(), **attrs):
    return {"name": name, "count": count, "total_seconds": total,
            "attrs": attrs, "children": list(children)}


def test_layer_sums_over_the_programs_span_tree():
    tree = [
        _node("ensemble.step", 10.0, children=[
            _node("member[1]", 9.5, children=[
                _node("program.A", 6.0, count=4, children=[
                    _node("kernel.k_c0", 2.5, count=8, bytes=100),
                    _node("program.B", 1.5, count=4, children=[
                        _node("kernel.k_c0", 1.0, count=4, bytes=50),
                    ]),
                ]),
                _node("halo.exchange", 1.0, count=2, messages=24, bytes=7),
            ]),
        ]),
    ]
    # nested programs: self time, so nothing is counted twice
    dispatch, calls = spans.sum_by_prefix(tree, ("program.",), True)
    assert dispatch == pytest.approx((6.0 - 2.5 - 1.5) + (1.5 - 1.0))
    assert calls == 8
    kernel, kernel_calls = spans.sum_by_prefix(tree, ("kernel.",), False)
    assert (kernel, kernel_calls) == (3.5, 12)
    swap, _ = spans.sum_by_prefix(tree, ("member[", "ensemble."), True)
    assert swap == pytest.approx(0.5 + 2.5)
    assert spans.sum_attr(tree, "halo.exchange", "messages") == 24
    assert spans.sum_attr(tree, "kernel.", "bytes") == 150
    # every second of the root is in exactly one layer
    assert dispatch + kernel + swap + 1.0 == pytest.approx(10.0)
