"""Dynamic ensemble membership — the serving layer's request slots.

One warm :class:`EnsembleDriver` engine hosts members that come and go:
``add_member``/``remove_member`` at any time, selective stepping,
bit-exact snapshot/restore of individual members, and an ``rng``
override that keeps a member's state a pure function of the *request's*
identity rather than the slot id it happens to occupy."""

import numpy as np
import pytest

from repro.fv3.config import DynamicalCoreConfig
from repro.run import EnsembleDriver, member_rng

CFG = DynamicalCoreConfig(
    npx=12, npz=4, layout=1, dt_atmos=300.0, k_split=1, n_split=2,
    n_tracers=1,
)


@pytest.fixture
def driver():
    d = EnsembleDriver("baroclinic_wave", CFG, members=(0,), seed=3,
                       diagnostics=False)
    yield d
    d.close()


def test_members_come_and_go(driver):
    driver.add_member(7)
    driver.add_member(2)
    assert driver.member_ids == (0, 7, 2)  # insertion order
    driver.remove_member(7)
    assert driver.member_ids == (0, 2)
    with pytest.raises(KeyError):
        driver.remove_member(7)
    with pytest.raises(ValueError):
        driver.add_member(2)  # already loaded


def test_step_selected_advances_only_the_selected(driver):
    driver.add_member(1)
    driver.step_selected([1], 2)
    assert driver.members[1].step_count == 2
    assert driver.members[0].step_count == 0  # untouched
    report = driver.member_report(1)
    assert report["step"] == 2
    assert np.isfinite(report["summary"]["max_wind"])


def test_snapshot_restore_resumes_bit_identically(driver):
    """snapshot at step 2, evict, re-install, run to 3 == straight run
    to 3 — byte for byte."""
    driver.step_selected([0], 3)
    want = driver.member_report(0)

    other = EnsembleDriver("baroclinic_wave", CFG, members=(0,), seed=3,
                           diagnostics=False)
    try:
        other.step_selected([0], 2)
        snap = other.snapshot_member(0)
        mass0 = other.members[0].mass0
        tracer0 = other.members[0].tracer0
        other.remove_member(0)
        other.add_member(0, snapshot=snap, mass0=mass0, tracer0=tracer0)
        assert other.members[0].step_count == 2  # adopted, not rebuilt
        other.step_selected([0], 1)
        got = other.member_report(0)
    finally:
        other.close()
    assert got["summary"] == want["summary"]
    assert got["mass_drift"] == want["mass_drift"]


def test_an_adopted_snapshot_becomes_the_members_storage(driver):
    """``adopt=True`` installs the snapshot's own arrays, not a copy;
    without it the member gets a copy and the snapshot stays the
    caller's."""
    driver.step_selected([0], 1)
    rec = driver.members[0]
    kept = driver.snapshot_member(0)
    given = driver.snapshot_member(0)
    for slot, snap, adopt in ((1, kept, False), (2, given, True)):
        driver.add_member(slot, snapshot=snap, adopt=adopt,
                          mass0=rec.mass0, tracer0=rec.tracer0)
    copied = driver.members[1].states
    adopted = driver.members[2].states
    for r, (fields, tracers) in enumerate(zip(given.arrays, given.tracers)):
        for name, arr in fields.items():
            assert getattr(adopted[r], name) is arr
            assert getattr(copied[r], name) is not kept.arrays[r][name]
            np.testing.assert_array_equal(getattr(copied[r], name), arr)
        assert all(a is t for a, t in zip(adopted[r].tracers, tracers))
    assert driver.members[2].step_count == 1


def test_snapshot_is_independent_of_later_stepping(driver):
    snap = driver.snapshot_member(0)
    before = [a.copy() for a in snap.arrays[0].values()]
    driver.step_selected([0], 1)
    for a, b in zip(before, snap.arrays[0].values()):
        np.testing.assert_array_equal(a, b)


def test_rng_override_decouples_state_from_slot_id(driver):
    """Two different slot ids seeded with the same request rng hold
    identical states; the default path would tie them to the slot."""
    driver.add_member(11, rng=member_rng(3, 1))
    driver.add_member(42, rng=member_rng(3, 1))
    driver.step_selected([11, 42], 2)
    a = driver.member_report(11)
    b = driver.member_report(42)
    assert a["summary"] == b["summary"]
    assert a["mass_drift"] == b["mass_drift"]
    # and they genuinely match the classic member-1 build under slot 1
    driver.add_member(1)
    driver.step_selected([1], 2)
    c = driver.member_report(1)
    assert c["summary"] == a["summary"]


def test_rng_none_installs_unperturbed_control(driver):
    driver.add_member(5, rng=None)
    driver.step_selected([0, 5], 1)
    control = driver.member_report(0)  # member 0 is the control
    clone = driver.member_report(5)
    assert clone["summary"] == control["summary"]


def test_engine_adoption_hosts_fresh_members(driver):
    """A second driver adopting the warm engine starts empty, serves
    its own members, and matches a cold driver bit for bit."""
    serving = EnsembleDriver("baroclinic_wave", CFG, members=(), seed=3,
                             engine=driver.engine, diagnostics=False)
    serving.add_member(0, rng=member_rng(3, 1))
    serving.step_selected([0], 2)
    got = serving.member_report(0)

    cold = EnsembleDriver("baroclinic_wave", CFG, members=(1,), seed=3,
                          diagnostics=False)
    try:
        cold.step_selected([1], 2)
        want = cold.member_report(1)
    finally:
        cold.close()
    assert got["summary"] == want["summary"]
    assert got["mass_drift"] == want["mass_drift"]


def test_engine_adoption_rejects_config_mismatch(driver):
    import dataclasses

    other = dataclasses.replace(CFG, dt_atmos=600.0)
    with pytest.raises(ValueError, match="different config"):
        EnsembleDriver("baroclinic_wave", other, members=(),
                       engine=driver.engine, diagnostics=False)


# ---------------------------------------------------------------------------
# the engine's arrays are the resident member's storage: no copy for it
# ---------------------------------------------------------------------------


def _digest_states(states):
    import hashlib

    h = hashlib.sha256()
    for state in states:
        for name in ("u", "v", "w", "pt", "delp", "delz"):
            h.update(getattr(state, name).tobytes())
        for tracer in state.tracers:
            h.update(tracer.tobytes())
    return h.hexdigest()


def _digest(driver, member):
    return _digest_states(driver.members[member].states)


def _copies():
    """State copies (in, out) by the swap since this call."""
    from repro.run import metrics

    start = metrics.summary()

    def since():
        now = metrics.summary()
        return tuple(now[f"state_copies_{way}"] - start[f"state_copies_{way}"]
                     for way in ("in", "out"))

    return since


def _always_copying(monkeypatch):
    """The reference: a driver whose members never take the engine's
    arrays and are copied out and back in around every use, whatever
    the engine holds."""
    from repro.run import driver as driver_module

    load = driver_module._load

    def reload(engine, rec):
        load(engine, None)
        load(engine, rec)

    monkeypatch.setattr(driver_module, "_load", reload)
    monkeypatch.setattr(driver_module, "_stream",
                        lambda scenario, rng: object())


def _script(members, tmp_path):
    """Steps, reports, add/remove/restore in one sequence; the digest of
    every member at every stage."""
    d = EnsembleDriver("baroclinic_wave", CFG, members=members, seed=3,
                       diagnostics=False)
    trail = []
    try:
        first = members[0]
        d.step(2)
        trail += [_digest(d, m) for m in d.member_ids]
        path = d.checkpoint_member(first, tmp_path / f"m{len(members)}.npz")
        d.step_selected([first], 1)
        trail.append(repr(d.member_report(first)["summary"]))
        d.add_member(9)
        d.step(1)
        trail += [_digest(d, m) for m in d.member_ids]
        d.restore_member(first, path)
        d.step_selected([first], 1)
        trail.append(_digest(d, first))
        d.remove_member(first)
        d.add_member(first)  # the same id, a fresh record
        d.step(1)
        trail += [_digest(d, m) for m in d.member_ids]
        trail.append(repr(d.run(1).members[0].summary))
    finally:
        d.close()
    return trail


@pytest.mark.parametrize("members", [(1,), (1, 2)])
def test_skipping_the_copy_in_changes_no_bit(members, tmp_path, monkeypatch):
    got = _script(members, tmp_path)
    _always_copying(monkeypatch)
    assert got == _script(members, tmp_path)


def test_a_one_member_run_copies_nothing():
    from repro.run import run

    copies = _copies()
    result = run("baroclinic_wave", CFG, steps=3, members=(1,), seed=3)
    assert result.ok
    assert copies() == (0, 0)


def test_a_resident_member_is_not_copied(driver):
    copies = _copies()
    driver.step(3)
    driver.member_report(0)
    assert driver.mass_drift(0) == driver.mass_drift(0)
    # one member: the engine's arrays are its own
    assert copies() == (0, 0)
    driver.add_member(4)  # loaded for its baselines: 0 out, 4 in
    assert copies() == (1, 1)
    driver.step(1)  # 4 resident: step; 4 out, 0 in, step
    assert copies() == (2, 2)
    driver.step_selected([4], 2)  # 0 out, 4 in
    assert copies() == (3, 3)
    driver.remove_member(4)  # detached: copied out
    assert copies() == (3, 4)


def test_swaps_after_the_first_eviction_allocate_nothing(driver):
    def arrays():
        held = [rec.states for rec in driver.members.values()]
        held.append(driver.engine.spare)
        return {id(state.u) for states in held for state in states}

    driver.add_member(4)  # the first eviction allocates the spare
    before = arrays()
    driver.step(2)
    driver.member_report(0)
    assert arrays() == before


def test_restored_record_is_what_the_next_step_sees(driver, tmp_path):
    """``restore_member`` of the resident member writes the engine's
    arrays in place: the next step starts from the checkpoint, and
    nothing is copied."""
    copies = _copies()
    start = _digest(driver, 0)
    path = driver.checkpoint_member(0, tmp_path / "start.npz")
    driver.step(1)
    once = _digest(driver, 0)
    driver.step(1)
    assert _digest(driver, 0) != once
    driver.restore_member(0, path)
    assert _digest(driver, 0) == start
    assert driver.engine.resident is driver.members[0]
    driver.step(1)
    assert _digest(driver, 0) == once
    assert copies() == (0, 0)


def test_a_step_that_raises_loses_the_member_until_restored(
    driver, tmp_path, monkeypatch,
):
    from repro.resilience import MemberLostError, ResilienceError

    driver.step(1)
    path = driver.checkpoint_member(0, tmp_path / "step1.npz")
    reference = EnsembleDriver("baroclinic_wave", CFG, members=(0,), seed=3,
                               diagnostics=False)
    try:
        reference.step(2)
        want_next = _digest(reference, 0)
    finally:
        reference.close()
    remap = driver.engine._remapping_step

    def scribble_and_die(dt):
        remap(dt)
        raise RuntimeError("fault after half a step")

    monkeypatch.setattr(driver.engine, "_remapping_step", scribble_and_die)
    with pytest.raises(RuntimeError, match="half a step"):
        driver.step(1)
    monkeypatch.undo()
    assert issubclass(MemberLostError, ResilienceError)
    for use in (
        lambda: driver.step(1),
        lambda: driver.member_report(0),
        lambda: driver.mass_drift(0),
        lambda: driver.snapshot_member(0),
        lambda: driver.checkpoint_member(0, tmp_path / "lost.npz"),
        lambda: driver.run(1),
    ):
        with pytest.raises(MemberLostError, match="member 0"):
            use()
    assert driver.members[0].step_count == 1
    # the others go on (the lost member is evicted like any other)
    driver.add_member(4)
    driver.step_selected([4], 1)
    driver.restore_member(0, path)
    driver.step_selected([0], 1)
    assert _digest(driver, 0) == want_next


def test_a_removed_resident_record_keeps_its_state(driver):
    driver.add_member(6)
    driver.step_selected([6], 1)
    assert driver.engine.resident is driver.members[6]
    removed = driver.remove_member(6)
    kept = _digest_states(removed.states)
    driver.step_selected([0], 2)
    assert _digest_states(removed.states) == kept


def test_removed_member_is_not_kept_alive_by_the_engine(driver):
    import gc
    import weakref

    driver.add_member(6)
    driver.step_selected([6], 1)
    assert driver.engine.resident is driver.members[6]
    gone = weakref.ref(driver.remove_member(6))
    gc.collect()
    assert gone() is None and driver.engine.resident is None


def test_two_drivers_on_one_engine_do_not_trust_each_others_loads(driver):
    serving = EnsembleDriver("baroclinic_wave", CFG, members=(), seed=3,
                             engine=driver.engine, diagnostics=False)
    serving.add_member(0, rng=member_rng(3, 1))  # same id, another state
    serving.step_selected([0], 1)
    driver.step(1)  # must load its own member 0, not step serving's
    serving.step_selected([0], 1)  # and serving its own again
    alone = EnsembleDriver("baroclinic_wave", CFG, members=(0, 1), seed=3,
                           diagnostics=False)
    try:
        alone.step_selected([0], 1)
        alone.step_selected([1], 2)
        assert _digest(driver, 0) == _digest(alone, 0)
        assert _digest(serving, 0) == _digest(alone, 1)
    finally:
        alone.close()
