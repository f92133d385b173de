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
# the engine remembers whose record it holds: no copy-in for that one
# ---------------------------------------------------------------------------


def _digest(driver, member):
    import hashlib

    h = hashlib.sha256()
    for state in driver.members[member].states:
        for name in ("u", "v", "w", "pt", "delp", "delz"):
            h.update(getattr(state, name).tobytes())
        for tracer in state.tracers:
            h.update(tracer.tobytes())
    return h.hexdigest()


@pytest.fixture
def copies(monkeypatch):
    """Counts state copies by direction: ``in`` (record → engine) and
    ``out`` (engine → record)."""
    from repro.run import driver as driver_module

    real = driver_module._copy_states
    counts = {"in": 0, "out": 0, "engines": set()}

    def counted(src, dst):
        counts["in" if id(dst) in counts["engines"] else "out"] += 1
        real(src, dst)

    monkeypatch.setattr(driver_module, "_copy_states", counted)
    return counts


def _always_copying(monkeypatch):
    """The reference: a driver that copies the record in before every
    use, whatever the engine holds."""
    real = EnsembleDriver._activate

    def activate(self, member):
        self.engine.resident = None
        return real(self, member)

    monkeypatch.setattr(EnsembleDriver, "_activate", activate)


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


def test_a_resident_member_is_copied_out_only(driver, copies):
    copies["engines"].add(id(driver.engine.states))
    driver.step(3)
    driver.member_report(0)
    assert driver.mass_drift(0) == driver.mass_drift(0)
    # one member: the engine keeps it, a step only stores it
    assert (copies["in"], copies["out"]) == (0, 3)
    driver.add_member(4)
    assert copies["in"] == 1  # the newcomer, for its baselines
    driver.step(1)  # 0 in, step, out; 4 in, step, out
    assert (copies["in"], copies["out"]) == (3, 5)
    driver.step_selected([4], 2)  # still resident
    assert (copies["in"], copies["out"]) == (3, 7)


def test_restored_record_is_what_the_next_step_sees(driver, tmp_path,
                                                    copies):
    """A record changed behind the engine's back — ``restore_member``
    is the sanctioned way — is copied in again although the engine held
    that member."""
    copies["engines"].add(id(driver.engine.states))
    start = _digest(driver, 0)
    path = driver.checkpoint_member(0, tmp_path / "start.npz")
    driver.step(1)
    once = _digest(driver, 0)
    driver.step(1)
    assert _digest(driver, 0) != once
    driver.restore_member(0, path)
    assert _digest(driver, 0) == start
    assert driver.engine.resident is None
    driver.step(1)
    assert _digest(driver, 0) == once
    assert copies["in"] == 1


def test_a_step_that_raises_leaves_nobody_resident(driver, monkeypatch):
    driver.step(1)
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
    assert driver.engine.resident is None
    assert driver.members[0].step_count == 1  # the record is untouched
    driver.step(1)  # copies the record back in over the half step
    assert _digest(driver, 0) == want_next


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
    alone = EnsembleDriver("baroclinic_wave", CFG, members=(0,), seed=3,
                           diagnostics=False)
    try:
        alone.step(1)
        assert _digest(driver, 0) == _digest(alone, 0)
    finally:
        alone.close()
