"""Unit tests for the compiled-program cache (repro.runtime.compile_cache)."""

import pathlib
import re
import shutil

import numpy as np
import pytest

from repro.dsl import Field, PARALLEL, computation, interval, stencil
from repro.runtime import compile_cache as cc


@pytest.fixture(autouse=True)
def _clean_cache():
    cc.reset(clear=True)
    yield
    cc.reset(clear=True)


@stencil
def _axpy(a: Field, b: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = a * 2.0 + b


def _build_sdfg(domain=(6, 6, 3)):
    shapes = {n: (8, 8, 4) for n in ("a", "b", "out")}
    return _axpy.build_sdfg(
        shapes, {n: np.float64 for n in shapes}, (0, 0, 0), domain
    )


def test_content_equal_sdfgs_share_a_program():
    """The second of two content-equal SDFGs is materialised from the
    image the first one stored: one miss, then a hit, one record."""
    p1 = cc.get_or_compile(_build_sdfg())
    p2 = cc.get_or_compile(_build_sdfg())
    assert p2.image == p1.image and p1.runtime_bytes > 0
    stats = cc.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert len(list(pathlib.Path(cc.RECORDS_DIR).glob("repro_p_*"))) == 1
    # without the record, the same content is generated again
    shutil.rmtree(cc.RECORDS_DIR)
    assert cc.get_or_compile(_build_sdfg()).image == p1.image
    assert cc.stats()["misses"] == 2


def test_an_evicted_plan_is_materialised_from_its_record():
    """No plan is held in memory: one compiled before another is a new
    object made from the image the first compile stored, a hit and not
    a third miss."""
    first = cc.get_or_compile(_build_sdfg((6, 6, 3)))
    cc.get_or_compile(_build_sdfg((5, 6, 3)))
    again = cc.get_or_compile(_build_sdfg((6, 6, 3)))
    assert again is not first and again.image == first.image
    stats = cc.stats()
    assert (stats["misses"], stats["hits"]) == (2, 1)


def test_different_content_misses():
    cc.get_or_compile(_build_sdfg((6, 6, 3)))
    cc.get_or_compile(_build_sdfg((5, 6, 3)))
    stats = cc.stats()
    assert stats["hits"] == 0 and stats["misses"] == 2


def test_cache_key_is_deterministic():
    k1 = cc.cache_key(_build_sdfg())
    k2 = cc.cache_key(_build_sdfg())
    assert k1 == k2
    assert k1 != cc.cache_key(_build_sdfg((5, 6, 3)))


def _with_callback(*args, **kwargs):
    from repro.sdfg.nodes import Callback

    sdfg = _build_sdfg()
    sdfg.add_state("cb").add(Callback("fill", print, args, kwargs))
    return sdfg


def test_callbacks_hash_by_container_name_and_constant_value():
    """A callback's arrays are container references and its constants
    values, so the key — and the cached program — is the same whichever
    run's arrays it will be called with."""
    from repro.sdfg.nodes import ContainerRef

    def key(*args, **kwargs):
        return cc.cache_key(_with_callback(*args, **kwargs))

    corners = ("sw", "ne")
    base = key(ContainerRef("a"), "y", corners, n_halo=3)
    assert base == key(ContainerRef("a"), "y", tuple(list(corners)), n_halo=3)
    assert base != key(ContainerRef("b"), "y", corners, n_halo=3)
    assert base != key(ContainerRef("a"), "x", corners, n_halo=3)
    assert base != key(ContainerRef("a"), "y", ("sw",), n_halo=3)
    assert base != key(ContainerRef("a"), "y", corners, n_halo=3.0)


def test_opaque_callback_arguments_hash_by_identity():
    first, second = [], []
    assert cc.cache_key(_with_callback(first)) == \
        cc.cache_key(_with_callback(first))
    assert cc.cache_key(_with_callback(first)) != \
        cc.cache_key(_with_callback(second))


def test_callback_container_references_resolve_per_call():
    from repro.sdfg.nodes import Callback, ContainerRef

    seen = []
    sdfg = _build_sdfg()
    sdfg.add_state("cb").add(Callback(
        "note", lambda arr, tag, scale: seen.append((arr, tag, scale)),
        (ContainerRef("a"), "t"), {"scale": 2},
    ))
    program = cc.get_or_compile(sdfg)
    for _ in range(2):
        arrays = {n: np.zeros((8, 8, 4)) for n in ("a", "b", "out")}
        program(arrays=arrays)
        assert seen[-1][0] is arrays["a"] and seen[-1][1:] == ("t", 2)


def test_backend_is_part_of_the_key(monkeypatch):
    """NumPy and compiled plans for content-equal SDFGs never collide."""
    from repro.runtime import jit

    if jit._find_cc() is None:
        pytest.skip("no C compiler")
    monkeypatch.setenv("REPRO_JIT", "cgen")
    jit.reset(engine=True)
    try:
        p_np = cc.get_or_compile(_build_sdfg(), backend="numpy")
        p_c = cc.get_or_compile(_build_sdfg(), backend="compiled")
        assert cc.cache_key(_build_sdfg(), backend="compiled") \
            != cc.cache_key(_build_sdfg(), backend="numpy")
        assert p_c.image != p_np.image
        assert p_c.compiled_kernels and p_np.compiled_kernels == []
        stats = cc.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0
        assert stats["by_backend"]["numpy"]["misses"] == 1
        assert stats["by_backend"]["compiled"]["misses"] == 1
        # a second compiled request hits its own record
        again = cc.get_or_compile(_build_sdfg(), backend="compiled")
        assert again.image == p_c.image
        assert cc.stats()["by_backend"]["compiled"]["hits"] == 1
    finally:
        jit.reset(engine=True)


def test_unknown_backend_raises():
    with pytest.raises(ValueError, match="unknown compile backend"):
        cc.get_or_compile(_build_sdfg(), backend="fortran")


def test_cached_program_results_are_correct():
    sdfg = _build_sdfg()
    prog = cc.get_or_compile(sdfg)
    rng = np.random.default_rng(0)
    a = rng.random((8, 8, 4))
    b = rng.random((8, 8, 4))
    out = np.zeros((8, 8, 4))
    cc.get_or_compile(_build_sdfg())(arrays={"a": a, "b": b, "out": out})
    np.testing.assert_array_equal(out[:6, :6, :3], (a * 2.0 + b)[:6, :6, :3])
    assert cc.stats()["hits"] == 1


def test_tuning_loop_shows_cache_hits_in_obs_report():
    """Repeated candidate timings are materialised from the stored plan
    image: hits in the counters, the JSON export and the report
    footer."""
    import json

    from repro import obs
    from repro.obs import report, to_json
    from repro.sdfg.cutout import Cutout, time_cutout

    sdfg = _build_sdfg()
    cut = Cutout(sdfg, inputs=["a", "b"], outputs=["out"],
                 source_state=sdfg.states[0].name)
    obs.enable()
    try:
        time_cutout(cut, repetitions=1)
        time_cutout(cut, repetitions=1)
    finally:
        obs.disable()
    assert cc.stats()["hits"] >= 1
    payload = json.loads(to_json())
    assert payload["counters"]["compile_cache"]["hits"] >= 1
    (line,) = [ln for ln in report().splitlines()
               if ln.startswith("compile_cache: ")]
    assert int(re.search(r"\bhits (\d+)", line).group(1)) >= 1


@stencil
def _two_planes(a: Field, b: Field, out: Field):
    with computation(PARALLEL), interval(...):
        b = a * 2.0
        out = b[1, 0, 0] + b[-1, 0, 0]


def test_the_machine_model_is_part_of_the_key():
    """Lowering reads the observed machine (its cache size picks the
    k-block, its balance what is recomputed), so a plan lowered for one
    machine must not be handed out under another: two machines whose
    caches force different k-blocks get two plans."""
    import dataclasses

    from repro import obs
    from repro.machine import HASWELL
    from repro.runtime import jit

    if not jit.available():
        pytest.skip("no JIT engine: nothing is lowered")
    shapes = {n: (10, 8, 16) for n in ("a", "b", "out")}
    sdfg = _two_planes.build_sdfg(
        shapes, {n: np.float64 for n in shapes}, (1, 0, 0), (8, 8, 16)
    )
    tiny = dataclasses.replace(HASWELL, name="tiny-cache", cache_bytes=4096)
    plans = {}
    try:
        for machine in (HASWELL, tiny, HASWELL):
            obs.set_observed_machine(machine)
            plan = cc.get_or_compile(sdfg, backend="compiled")
            assert plans.setdefault(machine.name, plan).image == plan.image
    finally:
        obs.set_observed_machine(None)
    big, small = plans[HASWELL.name], plans[tiny.name]
    assert [u.text for u in big.image.units] \
        != [u.text for u in small.image.units]
    assert (cc.stats()["hits"], cc.stats()["misses"]) == (1, 2)
