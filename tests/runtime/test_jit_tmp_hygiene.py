"""JIT disk-cache tmp hygiene (PR 10 satellite): failed builds must not
leak ``*.tmp<pid>`` files (objects, kernel names, sources), and stale
tmps from dead builders are swept when the cache is opened."""

import os
import time

import pytest

from repro.runtime import jit


def _touch(path, age_seconds=0.0):
    with open(path, "wb") as fh:
        fh.write(b"\x7fELF junk")
    if age_seconds:
        old = time.time() - age_seconds
        os.utime(path, (old, old))


def test_sweep_removes_tmp_of_dead_pid(tmp_path):
    dead = os.getpid()
    # find a pid that does not exist
    while jit._pid_alive(dead):
        dead += 7919
        if dead > 4_000_000:
            pytest.skip("could not find a free pid")
    victim = tmp_path / f"repro_abc.so.tmp{dead}"
    _touch(str(victim))
    removed = jit.sweep_stale_tmps(str(tmp_path))
    assert str(victim) in removed
    assert not victim.exists()


def test_sweep_keeps_fresh_tmp_of_live_pid(tmp_path):
    # pid 1 is always alive and never ours: a live concurrent builder
    fresh = tmp_path / "repro_abc.so.tmp1"
    _touch(str(fresh))
    removed = jit.sweep_stale_tmps(str(tmp_path))
    assert removed == []
    assert fresh.exists()


def test_sweep_reaps_ancient_tmp_even_if_pid_looks_alive(tmp_path):
    # pid reuse cover: an hour-old tmp is abandoned regardless of pid
    ancient = tmp_path / "repro_abc.so.tmp1"
    _touch(str(ancient), age_seconds=3600.0)
    removed = jit.sweep_stale_tmps(str(tmp_path))
    assert str(ancient) in removed


def test_sweep_removes_own_pid_tmp(tmp_path):
    # our own pid suffix means *we* died mid-build last time this pid
    # existed — or a previous build in this process failed; either
    # way the tmp is garbage
    mine = tmp_path / f"repro_abc.so.tmp{os.getpid()}"
    _touch(str(mine))
    removed = jit.sweep_stale_tmps(str(tmp_path))
    assert str(mine) in removed


@pytest.mark.parametrize("name", [
    "repro_o_abc.tmp{pid}.c",      # a source being written
    "repro_k_abc.so.tmp{pid}",     # a kernel name being published
    "repro_openmp_abc.tmp{pid}",   # the OpenMP verdict being written
])
def test_sweep_covers_every_kind_of_temporary(tmp_path, name):
    dead = os.getpid()
    while jit._pid_alive(dead):
        dead += 7919
        if dead > 4_000_000:
            pytest.skip("could not find a free pid")
    victim = tmp_path / name.format(pid=dead)
    _touch(str(victim))
    assert jit.sweep_stale_tmps(str(tmp_path)) == [str(victim)]


def test_sweep_ignores_non_tmp_files(tmp_path):
    keep = tmp_path / "repro_abc.so"
    _touch(str(keep))
    keep_c = tmp_path / "repro_abc.c"
    _touch(str(keep_c))
    assert jit.sweep_stale_tmps(str(tmp_path)) == []
    assert keep.exists() and keep_c.exists()


def test_jit_dir_sweeps_once_per_process(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    monkeypatch.setattr(jit, "_TMP_SWEPT", False)
    dead = os.getpid()
    while jit._pid_alive(dead):
        dead += 7919
        if dead > 4_000_000:
            pytest.skip("could not find a free pid")
    victim = tmp_path / f"repro_x.so.tmp{dead}"
    _touch(str(victim))
    jit.jit_dir()
    assert not victim.exists()
    # second open does not re-sweep (guard flipped)
    _touch(str(victim))
    jit.jit_dir()
    assert victim.exists()
    victim.unlink()


def test_failed_compile_leaves_no_tmp(tmp_path, monkeypatch):
    if jit._find_cc() is None:
        pytest.skip("no C compiler available")
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    monkeypatch.setattr(jit, "_TMP_SWEPT", True)
    with pytest.raises(jit.JitCompileError):
        jit.load_c(
            [jit.KernelSource("junk", "this is not C at all {{{", ())], ""
        )
    leftovers = [name for name in os.listdir(tmp_path) if ".tmp" in name]
    assert leftovers == []
    # no object and no kernel name either: only the rejected source stays
    assert [n for n in os.listdir(tmp_path) if n.endswith(".so")] == []
