import json

from benchmarks.perf import spec
from benchmarks.perf.cli import NAME, UNIT
from benchmarks.perf.env import ROOT


def _contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_states_the_same_names_as_the_code():
    contract = _contract()
    assert sorted(contract) == ["command", "end_to_end", "paths",
                                "per_layer", "run_seconds", "workloads"]
    assert contract["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in contract["workloads"]] == list(spec.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    ] == spec.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == spec.PER_LAYER


def test_names_units_and_limits_of_the_contract():
    contract = _contract()
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]
             + contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        contract["end_to_end"][0].items()
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in contract["workloads"])
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert len(contract["per_layer"]) <= 128


def test_exact_counters_and_timings_are_layer_metrics():
    layer_names = {name for name, _, _ in spec.PER_LAYER}
    assert set(spec.EXACT_COUNTERS) <= layer_names
    assert {n for names in spec.TIMINGS.values() for n in names} <= layer_names
    assert {w["kind"] for w in spec.WORKLOADS.values()} == set(spec.TIMINGS)
