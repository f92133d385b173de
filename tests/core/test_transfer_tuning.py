"""Auto-tuning and transfer-tuning tests (Sec. VI-B)."""

import numpy as np
import pytest

from repro.core.autotune import make_evaluator, tune_cutout
from repro.machine import P100
from repro.core.perfmodel import model_sdfg_time
from repro.core.transfer import extract_patterns, find_match, transfer_patterns
from repro.dsl import Field, PARALLEL, computation, interval, stencil
from repro.sdfg import SDFG
from repro.sdfg.codegen import compile_sdfg
from repro.sdfg.cutout import state_cutouts, time_cutout
from repro.sdfg.nodes import StencilComputation


@stencil
def _produce(a: Field, t: Field):
    with computation(PARALLEL), interval(...):
        t = a * 2.0 + 1.0


@stencil
def _consume(t: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = t[-1, 0, 0] + t[1, 0, 0]


def _motif_state(sdfg, state_name, in_name, out_name, shape, domain, origin):
    """Add one producer→consumer motif (the recurring pattern) to a state."""
    t_name = sdfg.add_transient(f"t_{state_name}", shape)
    state = sdfg.add_state(state_name)
    prod_origin = (origin[0] - 1, origin[1], origin[2])
    prod_domain = (domain[0] + 2, domain[1], domain[2])
    state.add(StencilComputation(
        _produce.definition, _produce.extents,
        mapping={"a": in_name, "t": t_name},
        domain=prod_domain, origin=prod_origin,
    ))
    state.add(StencilComputation(
        _consume.definition, _consume.extents,
        mapping={"t": t_name, "out": out_name},
        domain=domain, origin=origin,
    ))
    return state


def _program(n_states=4, shape=(12, 10, 4), domain=(10, 8, 4), origin=(1, 1, 0)):
    sdfg = SDFG("prog")
    sdfg.add_array("x", shape)
    for i in range(n_states):
        sdfg.add_array(f"y{i}", shape)
        _motif_state(sdfg, f"motif_{i}", "x", f"y{i}", shape, domain, origin)
    sdfg.expand_library_nodes()
    return sdfg


def test_state_cutouts_extracted():
    sdfg = _program()
    cutouts = state_cutouts(sdfg)
    assert len(cutouts) == 4
    c = cutouts[0]
    assert "x" in c.inputs
    assert c.outputs == ["y0"]
    assert len(c.kernels()) == 2


def test_cutout_synthesis_and_timing():
    sdfg = _program(n_states=1)
    (cutout,) = state_cutouts(sdfg)
    arrays = cutout.synthesize_arrays()
    assert set(arrays) == {"x", "y0"}
    t = time_cutout(cutout, repetitions=2)
    assert t > 0


def test_tune_cutout_finds_otf_fusion():
    sdfg = _program(n_states=1)
    (cutout,) = state_cutouts(sdfg)
    configs, evaluated = tune_cutout(cutout, make_evaluator(machine=P100))
    assert evaluated >= 2  # baseline + at least the OTF config
    best = configs[0]
    assert not best.is_baseline
    assert best.steps[0][0] == "otf"
    baseline = next(c for c in configs if c.is_baseline)
    assert best.score < baseline.score


def test_extract_patterns_top_m_and_dedup():
    sdfg = _program(n_states=2)
    cutouts = state_cutouts(sdfg)
    configs = []
    for c in cutouts:
        cfgs, _ = tune_cutout(c, make_evaluator(machine=P100))
        configs.extend(cfgs)
    patterns = extract_patterns(configs)
    assert patterns
    # the same motif in both states yields ONE deduplicated pattern
    otf_patterns = [p for p in patterns if p.xform == "otf"]
    assert len(otf_patterns) == 1
    assert otf_patterns[0].labels == (("_produce_c0",), ("_consume_c0",))


def test_transfer_applies_pattern_across_whole_graph():
    sdfg = _program(n_states=4)
    # tune only the FIRST state (the paper tunes FVT, transfers to all)
    cutouts = state_cutouts(sdfg)[:1]
    configs = []
    for c in cutouts:
        cfgs, _ = tune_cutout(c, make_evaluator(machine=P100))
        configs.extend(cfgs)
    patterns = extract_patterns(configs)
    before = model_sdfg_time(sdfg, P100)
    result = transfer_patterns(sdfg, patterns, machine=P100)
    after = model_sdfg_time(sdfg, P100)
    assert result.applied == 4  # one fusion per motif state
    assert after < before
    # every state is now a single fused kernel
    for state in sdfg.states:
        assert len(state.kernels) == 1


def test_transfer_preserves_program_output():
    shape, domain, origin = (12, 10, 4), (10, 8, 4), (1, 1, 0)
    rng = np.random.default_rng(3)
    x = rng.random(shape)

    def run(sdfg):
        arrays = {"x": x.copy()}
        for i in range(4):
            arrays[f"y{i}"] = np.zeros(shape)
        compile_sdfg(sdfg)(arrays=arrays)
        return arrays

    ref = run(_program())
    tuned = _program()
    cutouts = state_cutouts(tuned)[:1]
    configs = []
    for c in cutouts:
        cfgs, _ = tune_cutout(c, make_evaluator(machine=P100))
        configs.extend(cfgs)
    patterns = extract_patterns(configs)
    transfer_patterns(tuned, patterns, machine=P100)
    got = run(tuned)
    for i in range(4):
        np.testing.assert_array_equal(ref[f"y{i}"], got[f"y{i}"])


def test_find_match_respects_labels():
    sdfg = _program(n_states=1)
    from repro.core.transfer import Pattern

    wrong = Pattern("otf", (("nonexistent_c0",), ("_consume_c0",)))
    assert find_match(sdfg, sdfg.states[0], wrong) is None


def test_transfer_requires_local_improvement():
    """Patterns are only applied when the model reports a local win."""
    sdfg = _program(n_states=1)
    from repro.core.transfer import Pattern

    pattern = Pattern("otf", (("_produce_c0",), ("_consume_c0",)))
    result = transfer_patterns(sdfg, [pattern], machine=P100)
    assert result.applied == 1  # OTF here removes a transient: a clear win
