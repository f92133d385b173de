"""Property-based round-trip of the facade result types.

The serving layer ships :class:`RunResult`/:class:`MemberResult` as JSON
responses, so every serializable field must survive
``from_json(to_json(x))`` exactly — including floats bit-for-bit
(Python's JSON float encoding is ``repr``-based).  The two object-graph
fields are documented non-serializable: ``MemberResult.states`` comes
back ``[]`` and ``RunResult.engine`` comes back ``None``.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.fv3.config import DynamicalCoreConfig
from repro.run.results import MemberResult, RunResult

settings.register_profile("repro", deadline=None, max_examples=50)
settings.load_profile("repro")

# finite + signed-infinity floats: JSON round-trips both exactly; NaN is
# excluded only because it breaks the == comparison, not the transport
finite = st.floats(allow_nan=False, allow_infinity=True, width=64)

names = st.text(
    st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                  whitelist_characters="_"),
    min_size=1, max_size=12,
)

summaries = st.dictionaries(names, finite, max_size=6)

member_results = st.builds(
    MemberResult,
    member=st.integers(0, 64),
    steps=st.integers(0, 10_000),
    summary=summaries,
    mass_drift=finite,
    tracer_drift=st.one_of(st.none(), finite),
    check_violations=st.lists(st.text(max_size=40), max_size=4),
    history=st.lists(summaries, max_size=5),
    states=st.just([]),
)

configs = st.builds(
    DynamicalCoreConfig,
    npx=st.sampled_from([12, 24, 48]),
    npz=st.integers(3, 20),
    layout=st.just(1),
    dt_atmos=st.floats(1.0, 1800.0, allow_nan=False),
    k_split=st.integers(1, 4),
    n_split=st.integers(1, 8),
    n_tracers=st.integers(1, 4),
    d2_damp=st.floats(0.0, 1.0, allow_nan=False),
    smag_coeff=st.floats(0.0, 1.0, allow_nan=False),
)

run_results = st.builds(
    RunResult,
    scenario=names,
    config=configs,
    steps=st.integers(0, 10_000),
    seed=st.integers(0, 2**31),
    members=st.lists(member_results, max_size=3),
    seconds=st.floats(0.0, 1e6, allow_nan=False),
    executor=names,
    amortization=st.dictionaries(names, st.integers(0, 1_000_000),
                                 max_size=5),
    engine=st.just(None),
)


@given(member_results)
def test_member_result_roundtrips(m):
    back = MemberResult.from_dict(json.loads(json.dumps(m.to_dict())))
    assert back == m


@given(run_results)
def test_run_result_roundtrips(r):
    back = RunResult.from_json(r.to_json())
    assert back == r
    assert back.engine is None
    assert isinstance(back.config, DynamicalCoreConfig)


@given(run_results)
def test_run_result_json_is_plain_data(r):
    """The wire form is a plain JSON object, loadable by any consumer —
    no repr round-trips, no pickles."""
    payload = json.loads(r.to_json())
    assert payload["scenario"] == r.scenario
    assert payload["config"] == dataclasses.asdict(r.config)
    assert len(payload["members"]) == len(r.members)
    for wire, m in zip(payload["members"], r.members):
        assert wire["member"] == m.member
        for key, value in m.summary.items():
            got = wire["summary"][key]
            assert got == value or (math.isinf(value) and got == value)


def test_a_config_key_the_model_no_longer_has_is_refused_by_name():
    """No silent drop of what a result was computed with: a result
    written with a field the configuration has since lost does not load."""
    payload = json.loads(RunResult(
        "baroclinic_wave", DynamicalCoreConfig(), 1, 0, [], 0.0, "sequential",
        {},
    ).to_json())
    for key, value in (("hydrostatic", False), ("tau", 0.0)):
        stale = dict(payload, config={**payload["config"], key: value})
        with pytest.raises(TypeError, match=key):
            RunResult.from_dict(stale)


@given(member_results, st.integers(0, 3))
def test_floats_survive_bit_identically(m, _):
    back = MemberResult.from_dict(json.loads(json.dumps(m.to_dict())))
    for key, value in m.summary.items():
        assert math.copysign(1.0, back.summary[key]) == \
            math.copysign(1.0, value)
        assert back.summary[key] == value
    assert back.mass_drift == m.mass_drift
