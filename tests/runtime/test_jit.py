"""Unit tests for the JIT engine abstraction (repro.runtime.jit)."""

import ctypes
import os

import pytest

from repro.runtime import jit


@pytest.fixture()
def forced_engine(monkeypatch):
    """Force an engine for one test, restoring resolution afterwards."""

    def force(name):
        monkeypatch.setenv("REPRO_JIT", name)
        jit.reset(engine=True)
        return jit.engine_name()

    yield force
    monkeypatch.delenv("REPRO_JIT", raising=False)
    jit.reset(engine=True)


def test_engine_resolution_is_sticky(forced_engine):
    assert forced_engine("pyloops") == "pyloops"
    # a later env change is ignored until reset(engine=True)
    os.environ["REPRO_JIT"] = "none"
    try:
        assert jit.engine_name() == "pyloops"
    finally:
        os.environ.pop("REPRO_JIT", None)
        jit.reset(engine=True)


def test_bogus_forced_engine_raises(forced_engine):
    with pytest.raises(ValueError, match="expected one of"):
        forced_engine("fortran")


@pytest.mark.parametrize("bad", ["junk", "0", "-4", "2.5"])
def test_bad_kblock_raises_typed_error_naming_variable_and_value(
    monkeypatch, bad
):
    monkeypatch.setenv("REPRO_KBLOCK", bad)
    with pytest.raises(jit.JitConfigError, match=f"REPRO_KBLOCK='{bad}'"):
        jit.k_block_override()
    # the compile-cache key uses the same reader: same error, same place
    from repro.runtime import compile_cache

    with pytest.raises(jit.JitConfigError):
        compile_cache.codegen_flags(backend="compiled")


def test_kblock_cache_key_is_the_parsed_value(monkeypatch, forced_engine):
    from repro.runtime import compile_cache

    forced_engine("pyloops")
    monkeypatch.delenv("REPRO_KBLOCK", raising=False)
    assert jit.k_block_override() is None
    unset = compile_cache.codegen_flags(backend="compiled")
    keys = set()
    for spelling in ("8", "08", " 8"):
        monkeypatch.setenv("REPRO_KBLOCK", spelling)
        assert jit.k_block_override() == 8
        keys.add(compile_cache.codegen_flags(backend="compiled"))
    assert len(keys) == 1 and unset not in keys


def test_none_engine_is_unavailable(forced_engine):
    forced_engine("none")
    assert not jit.available()


def test_compile_py_pyloops_executes(forced_engine):
    forced_engine("pyloops")
    import numpy as np

    src = (
        "def tripler(f_x):\n"
        "    for i in __prange(0, 3):\n"
        "        f_x[i] = f_x[i] * 3.0\n"
        "    return None\n"
    )
    fn = jit.compile_py(src, "tripler")
    x = np.array([1.0, 2.0, 3.0])
    fn(x)
    assert list(x) == [3.0, 6.0, 9.0]


def test_compile_c_roundtrip_and_disk_cache(forced_engine, tmp_path,
                                            monkeypatch):
    forced_engine("cgen")
    if jit._find_cc() is None:
        pytest.skip("no C compiler on this machine")
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    jit.reset()
    src = (
        "#include <stdint.h>\n"
        "void add_one(double* x, int64_t n)\n"
        "{ for (int64_t i = 0; i < n; ++i) x[i] += 1.0; }\n"
    )
    lib = jit.compile_c(src)
    import numpy as np

    x = np.zeros(4)
    fn = lib.add_one
    fn.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    fn(x.ctypes.data, 4)
    assert list(x) == [1.0, 1.0, 1.0, 1.0]
    stats = jit.stats()
    assert stats["compiles"] == 1
    assert stats["compile_seconds"] > 0

    # same source, fresh process-level state → served from disk
    jit._LOADED.clear()
    jit.compile_c(src)
    assert jit.stats()["disk_hits"] == 1


def test_compile_c_threads_racing_on_one_key(forced_engine, tmp_path,
                                             monkeypatch):
    """Rank threads that reach the same uncompiled kernel together share
    one pid-suffixed temporary name: they must build once, not delete
    each other's object between the compile and the rename."""
    import threading

    forced_engine("cgen")
    if jit._find_cc() is None:
        pytest.skip("no C compiler on this machine")
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    jit.reset()
    src = "double twice(double x) { return 2.0 * x; }\n"
    start = threading.Barrier(6)
    libs, errors = [], []

    def build():
        try:
            start.wait(timeout=30)
            libs.append(jit.compile_c(src))
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(libs) == 6 and all(lib is libs[0] for lib in libs)
    assert jit.stats()["compiles"] == 1
    assert [n for n in os.listdir(tmp_path) if ".tmp" in n] == []


def test_compile_c_reports_compiler_errors(forced_engine, tmp_path,
                                           monkeypatch):
    forced_engine("cgen")
    if jit._find_cc() is None:
        pytest.skip("no C compiler on this machine")
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    with pytest.raises(jit.JitCompileError, match="failed on generated"):
        jit.compile_c("void broken( {")


def test_default_threads_env(monkeypatch):
    monkeypatch.setenv("REPRO_THREADS", "3")
    assert jit.default_threads() == 3
    monkeypatch.setenv("REPRO_THREADS", "0")
    assert jit.default_threads() == 1


def test_stats_reset(forced_engine):
    forced_engine("pyloops")
    jit.record_compile_seconds(0.5, count=2)
    assert jit.stats()["compiles"] >= 2
    jit.reset()
    stats = jit.stats()
    assert stats["compiles"] == 0 and stats["compile_seconds"] == 0.0
