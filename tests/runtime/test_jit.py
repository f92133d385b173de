"""Unit tests for the JIT engine abstraction (repro.runtime.jit)."""

import ctypes
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.runtime import jit

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


#: a compiler path that does not exist: no engine resolves
_NO_CC = "/nonexistent/repro-no-cc"


@pytest.fixture()
def fresh_engine():
    """Resolve the engine anew for one test, and again afterwards."""
    jit.reset(engine=True)
    yield
    jit.reset(engine=True)


@pytest.mark.skipif(jit._find_cc() is None, reason="no C compiler")
def test_engine_resolution_is_sticky(fresh_engine, monkeypatch):
    assert jit.engine_name() == "cgen"
    # a later change of compiler is ignored until reset(engine=True)
    monkeypatch.setenv("REPRO_CC", _NO_CC)
    assert jit.engine_name() == "cgen"
    jit.reset(engine=True)
    assert jit.engine_name() == "none"


def test_none_engine_is_unavailable(fresh_engine, monkeypatch):
    """A ``REPRO_CC`` that names no compiler resolves no engine, and
    nothing can be built."""
    monkeypatch.setenv("REPRO_CC", _NO_CC)
    assert jit.engine_name() == "none"
    assert not jit.available()


def _kernel(name, body, label=None, argtypes=(ctypes.c_void_p, ctypes.c_int64)):
    """A C kernel ``name`` applying ``body`` to every x[i]; distinct
    names give distinct text, hence distinct kernels."""
    return jit.KernelSource(
        label or name,
        f"/* {name} */\n"
        f"void {jit.SYMBOL}(double* x, int64_t n)\n"
        f"{{ for (int64_t i = 0; i < n; ++i) {body}; }}\n",
        argtypes,
    )


PREAMBLE = "#include <stdint.h>\n"
ADD_ONE = _kernel("add_one", "x[i] += 1.0")


def _forget_loaded():
    """What a fresh process starts with: nothing loaded, nothing probed."""
    jit._KERNELS.clear()
    jit._OBJECTS.clear()
    jit._PROBED.clear()


@pytest.fixture()
def store(fresh_engine, tmp_path, monkeypatch):
    """The C engine on an empty store directory, as a fresh process."""
    if jit._find_cc() is None:
        pytest.skip("no C compiler on this machine")
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    _forget_loaded()
    jit.reset()
    # the host's instruction set is probed once per store; do it here so
    # that the tests below count the compilers of *kernels*
    cc = jit._find_cc()
    jit._flag_works(cc, jit._cc_identity(cc), jit._ISA_FLAG)
    _forget_loaded()
    return tmp_path


def _apply(flight, values=(0.0, 0.0, 0.0, 0.0)):
    import numpy as np

    x = np.array(values)
    flight.result()(x.ctypes.data, len(x))
    return list(x)


class _RecordingPopen(subprocess.Popen):
    """Counts the compiler processes alive at once (started and not yet
    collected), without timing anything."""

    live = 0
    peak = 0
    started = 0
    lock = threading.Lock()
    #: when set, every start waits here for its siblings
    gate = None

    def __init__(self, *args, **kwargs):
        cls = _RecordingPopen
        if cls.gate is not None:
            cls.gate.wait(timeout=60)
        super().__init__(*args, **kwargs)
        with cls.lock:
            cls.live += 1
            cls.started += 1
            cls.peak = max(cls.peak, cls.live)

    def communicate(self, *args, **kwargs):
        try:
            return super().communicate(*args, **kwargs)
        finally:
            with _RecordingPopen.lock:
                _RecordingPopen.live -= 1


@pytest.fixture()
def compilers(monkeypatch):
    cls = _RecordingPopen
    cls.live = cls.peak = cls.started = 0
    cls.gate = None
    monkeypatch.setattr(subprocess, "Popen", cls)
    return cls


def test_compile_c_roundtrip_and_disk_cache(store):
    (fn,) = jit.load_c([ADD_ONE], PREAMBLE)
    assert _apply(fn) == [1.0, 1.0, 1.0, 1.0]
    stats = jit.stats()
    assert stats["compiles"] == 1
    assert stats["compile_seconds"] > 0
    assert (stats["kernels_requested"], stats["kernels_built"],
            stats["kernels_reused"]) == (1, 1, 0)
    # one object, one name pointing at it, the source beside them
    (name,) = store.glob("repro_k_*.so")
    (obj,) = store.glob("repro_o_*.so")
    assert name.is_symlink() and name.resolve() == obj
    assert obj.with_suffix(".c").exists()

    # asked again in this process: the table answers, same object
    assert jit.load_c([ADD_ONE], PREAMBLE)[0] is fn
    assert jit.stats()["kernels_reused"] == 1
    assert jit.stats()["disk_hits"] == 0

    # same text, fresh process-level state → served from disk
    _forget_loaded()
    jit.load_c([ADD_ONE], PREAMBLE)
    stats = jit.stats()
    assert stats["disk_hits"] == 1 and stats["compiles"] == 1
    assert stats["kernels_reused"] == 2 and stats["kernels_built"] == 1


def test_kernel_identity_ignores_label_but_not_text_or_preamble(store):
    a, b = jit.load_c(
        [ADD_ONE, ADD_ONE._replace(label="same text, other program")],
        PREAMBLE,
    )
    assert a is b
    assert jit.stats()["kernels_built"] == 1
    (c,) = jit.load_c([_kernel("add_two", "x[i] += 2.0")], PREAMBLE)
    (d,) = jit.load_c([ADD_ONE], PREAMBLE + "#include <math.h>\n")
    assert c is not a and d is not a
    assert jit.stats()["kernels_built"] == 3
    assert _apply(c) == [2.0] * 4 and _apply(d) == [1.0] * 4


def test_compile_c_threads_racing_on_one_key(store):
    """Rank threads that reach the same unbuilt kernel together build it
    once and all get the one function object."""
    start = threading.Barrier(6)
    fns, errors = [], []

    def build():
        try:
            start.wait(timeout=30)
            fns.extend(jit.load_c([ADD_ONE], PREAMBLE))
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(fns) == 6 and all(fn is fns[0] for fn in fns)
    stats = jit.stats()
    assert stats["compiles"] == 1 and stats["kernels_built"] == 1
    assert stats["kernels_requested"] == 6 and stats["kernels_reused"] == 5
    assert [n for n in os.listdir(store) if ".tmp" in n] == []


def test_threads_on_different_kernels_build_concurrently(store, compilers):
    """No process-wide build lock: each thread's compiler only starts
    once the other thread's is about to start too."""
    compilers.gate = threading.Barrier(2)
    errors = []

    def build(kernel):
        try:
            jit.load_c([kernel], PREAMBLE)
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=build, args=(_kernel(f"t{n}", f"x[i] += {n}"),))
        for n in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert compilers.peak == 2 and jit.stats()["compiles"] == 2


def test_stress_overlapping_requests_lose_no_kernel(store):
    """More threads than cores, overlapping kernel sets, a short switch
    interval: every kernel is built exactly once and every request gets
    the table's one object per kernel."""
    import sys

    kernels = [_kernel(f"s{n}", f"x[i] += {n}") for n in range(6)]
    results, errors = {}, []

    def build(tid):
        try:
            mine = [kernels[(tid + d) % 6] for d in range(3)]
            results[tid] = dict(zip(
                (k.label for k in mine), jit.load_c(mine, PREAMBLE)
            ))
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    stats = jit.stats()
    assert stats["kernels_requested"] == 24 and stats["kernels_built"] == 6
    assert stats["kernels_reused"] == 18
    for label in (k.label for k in kernels):
        assert len({id(r[label]) for r in results.values() if label in r}) == 1
    assert len(list(store.glob("repro_k_*.so"))) == 6


@pytest.mark.parametrize("cpus, expected", [({0, 1}, 2), ({0}, 1), ({0, 1, 2}, 3)])
def test_missing_kernels_build_in_concurrent_batches(
    store, compilers, monkeypatch, cpus, expected
):
    monkeypatch.setattr(jit.os, "sched_getaffinity", lambda pid: cpus)
    kernels = [_kernel(f"b{n}", f"x[i] += {n}") for n in range(5)]
    fns = jit.load_c(kernels, PREAMBLE)
    assert [_apply(fn, (0.0,)) for fn in fns] == [[float(n)] for n in range(5)]
    assert compilers.started == compilers.peak == expected
    stats = jit.stats()
    assert stats["compiles"] == expected and stats["kernels_built"] == 5
    assert len(list(store.glob("repro_o_*.so"))) == expected
    assert len(list(store.glob("repro_k_*.so"))) == 5
    # only what is missing is built: one new kernel, one compiler
    jit.load_c(kernels + [_kernel("b5", "x[i] += 5")], PREAMBLE)
    assert compilers.started == expected + 1
    assert jit.stats()["kernels_built"] == 6


def test_compile_c_reports_compiler_errors(store):
    broken = jit.KernelSource("broken_label", f"void {jit.SYMBOL}( {{", ())
    with pytest.raises(jit.JitCompileError, match="failed on generated") as err:
        jit.load_c([broken], "")
    assert "broken_label" in str(err.value)


def test_failing_batch_leaves_nothing_and_keeps_its_siblings(
    store, monkeypatch
):
    monkeypatch.setattr(jit.os, "sched_getaffinity", lambda pid: {0, 1})
    broken = jit.KernelSource("bad_one", f"void {jit.SYMBOL}( {{", ())
    with pytest.raises(jit.JitCompileError, match="bad_one") as err:
        jit.load_c([ADD_ONE, broken], PREAMBLE)
    assert "add_one" not in str(err.value)
    assert len(list(store.glob("repro_o_*.so"))) == 1
    assert len(list(store.glob("repro_k_*.so"))) == 1
    assert [n for n in os.listdir(store) if ".tmp" in n] == []
    stats = jit.stats()
    assert stats["compiles"] == 1 and stats["kernels_built"] == 1
    # the sibling is loaded; the failed kernel is asked for afresh
    (fn,) = jit.load_c([ADD_ONE], PREAMBLE)
    assert _apply(fn) == [1.0] * 4
    assert jit.stats()["compiles"] == 1
    with pytest.raises(jit.JitCompileError):
        jit.load_c([broken], PREAMBLE)


def test_waiters_on_a_failed_build_fail_too_and_a_retry_builds(store):
    """A thread waiting for a kernel another thread fails to build gets
    that error instead of hanging; the table forgets the kernel."""
    broken = jit.KernelSource("bad_one", f"void {jit.SYMBOL}( {{", ())
    start = threading.Barrier(4)
    errors = []

    def build():
        start.wait(timeout=30)
        try:
            jit.load_c([broken], PREAMBLE)
        except jit.JitCompileError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert len(errors) == 4
    assert jit._KERNELS == {}


# ---------------------------------------------------------------------------
# batches: ask for everything, then wait once
# ---------------------------------------------------------------------------


def _unit_commands(commands):
    """The command lines among ``commands`` that compile a translation
    unit of kernels (not a flag probe)."""
    return [c for c in commands if any("repro_o_" in arg for arg in c)]


def test_a_batch_builds_all_its_requests_at_once(store, compilers):
    """Requests made inside a batch are claimed and recorded; the builder
    is entered once, when the batch exits, with the union."""
    first = [_kernel(f"q{n}", f"x[i] += {n}") for n in range(3)]
    second = [_kernel(f"q{n}", f"x[i] += {n}") for n in range(2, 6)]
    with jit.batch():
        a = jit.load_c(first, PREAMBLE)
        b = jit.load_c(second, PREAMBLE)
        assert a[2] is b[0]
        assert not any(flight.done.is_set() for flight in a + b)
        assert compilers.started == 0 and jit.stats()["builds"] == 0
    assert [_apply(fn, (0.0,)) for fn in a + b[1:]] == \
        [[float(n)] for n in range(6)]
    stats = jit.stats()
    assert stats["builds"] == 1
    assert stats["compiles"] == compilers.started == min(jit._build_width(), 6)
    assert (stats["kernels_requested"], stats["kernels_built"],
            stats["kernels_reused"]) == (7, 6, 1)
    assert len(list(store.glob("repro_k_*.so"))) == 6


def test_nested_batches_build_once_at_the_outermost_exit(store):
    inner_kernel, outer_kernel = (
        _kernel(f"n{n}", f"x[i] += {n}") for n in (1, 2)
    )
    with jit.batch():
        with jit.batch():
            (inner,) = jit.load_c([inner_kernel], PREAMBLE)
        assert not inner.done.is_set() and jit.stats()["builds"] == 0
        (outer,) = jit.load_c([outer_kernel], PREAMBLE)
    assert jit.stats()["builds"] == 1
    assert _apply(inner, (0.0,)) == [1.0] and _apply(outer, (0.0,)) == [2.0]


def test_a_wait_inside_a_batch_builds_what_is_recorded_so_far(store):
    """Calling a kernel before its batch is over does not wait for the
    batch — which would be waiting for oneself."""
    early, late = (_kernel(f"w{n}", f"x[i] += {n}") for n in (1, 2))
    with jit.batch():
        (fn,) = jit.load_c([early], PREAMBLE)
        assert _apply(fn, (0.0,)) == [1.0]
        assert jit.stats()["builds"] == 1
        (other,) = jit.load_c([late], PREAMBLE)
        assert not other.done.is_set()
    assert jit.stats()["builds"] == 2 and _apply(other, (0.0,)) == [2.0]


def test_flag_sets_of_one_batch_do_not_share_a_unit(store, monkeypatch):
    """Kernels asked for with and without OpenMP in one batch are built
    side by side, each unit with its own flags — also on one CPU."""
    cc = jit._find_cc()
    if not jit._flag_works(cc, jit._cc_identity(cc), "-fopenmp"):
        pytest.skip("the compiler has no OpenMP")
    monkeypatch.setattr(jit.os, "sched_getaffinity", lambda pid: {0})
    commands = _compile_commands(monkeypatch)
    with jit.batch():
        threaded = jit.load_c(
            [_kernel(f"o{n}", f"x[i] += {n}") for n in range(2)], PREAMBLE,
            want_openmp=True,
        )
        (serial,) = jit.load_c([_kernel("o2", "x[i] += 2")], PREAMBLE)
    units = _unit_commands(commands)
    assert sorted("-fopenmp" in unit for unit in units) == [False, True]
    stats = jit.stats()
    assert stats["builds"] == 1 and stats["compiles"] == 2
    assert [_apply(fn, (0.0,)) for fn in (*threaded, serial)] == \
        [[0.0], [1.0], [2.0]]


def test_a_batch_whose_body_raises_fails_what_it_recorded(store):
    """Nothing is built; a thread waiting on a recorded kernel gets the
    body's exception instead of hanging; the kernel can be asked for
    again."""
    import time

    recorded = threading.Event()
    errors = []

    def waiter():
        recorded.wait(timeout=30)
        try:
            jit.load_c([ADD_ONE], PREAMBLE)
        except RuntimeError as exc:
            errors.append(exc)

    thread = threading.Thread(target=waiter)
    thread.start()
    with pytest.raises(RuntimeError, match="body failed"):
        with jit.batch():
            (flight,) = jit.load_c([ADD_ONE], PREAMBLE)
            recorded.set()
            deadline = time.monotonic() + 30
            while jit.stats()["kernels_requested"] < 2:  # the waiter's
                assert time.monotonic() < deadline
                time.sleep(0.001)
            raise RuntimeError("body failed")
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert [str(exc) for exc in errors] == ["body failed"]
    with pytest.raises(RuntimeError, match="body failed"):
        flight.result()
    assert jit._KERNELS == {} and jit.stats()["builds"] == 0
    assert list(store.glob("repro_[ko]_*")) == []
    (fn,) = jit.load_c([ADD_ONE], PREAMBLE)
    assert _apply(fn) == [1.0] * 4 and jit.stats()["builds"] == 1


def test_a_rejected_unit_fails_its_kernels_only_and_a_retry_builds(
    store, monkeypatch, tmp_path_factory
):
    """A compiler that rejects one translation unit of a batch: that
    unit's kernels fail with an error naming them, the other unit is
    loaded and published, nothing half-written stays, and the rejected
    kernels are asked for afresh."""
    real = jit._find_cc()
    wrapper = tmp_path_factory.mktemp("bin") / "pickycc"
    wrapper.write_text(
        "#!/bin/sh\n"
        'for a in "$@"; do case "$a" in *.c)\n'
        '  if grep -q reject_me "$a"; then\n'
        '    echo "pickycc: rejected" >&2; exit 1; fi;;\n'
        "esac; done\n"
        f'exec {real} "$@"\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setenv("REPRO_CC", str(wrapper))
    monkeypatch.setattr(jit.os, "sched_getaffinity", lambda pid: {0, 1})
    # largest first onto the lightest unit: {good}, {reject_me, bystander}
    good = _kernel("good", "x[i] += 1.0 /* the longest of the three */")
    bad = _kernel("reject_me", "x[i] += 2.0 /* second */")
    bystander = _kernel("bystander", "x[i] += 3.0")
    with pytest.raises(jit.JitCompileError, match="pickycc: rejected") as err:
        with jit.batch():
            (a,) = jit.load_c([good], PREAMBLE)
            b, c = jit.load_c([bad, bystander], PREAMBLE)
    # (a unit lists its kernels by symbol, which hashes the compiler's path)
    assert "reject_me" in str(err.value) and "bystander" in str(err.value)
    assert "good" not in str(err.value)
    assert _apply(a, (0.0,)) == [1.0]
    for flight in (b, c):
        with pytest.raises(jit.JitCompileError, match="reject_me") as own:
            flight.result()
        assert "bystander" in str(own.value)
    stats = jit.stats()
    assert (stats["builds"], stats["compiles"], stats["kernels_built"]) \
        == (1, 1, 1)
    assert len(list(store.glob("repro_o_*.so"))) == 1
    assert len(list(store.glob("repro_k_*.so"))) == 1
    assert [n for n in os.listdir(store) if ".tmp" in n] == []
    assert set(jit._KERNELS) == {a.key}
    # a compiler that takes the unit: the same request builds it
    wrapper.write_text(f'#!/bin/sh\nexec {real} "$@"\n')
    b, c = jit.load_c([bad, bystander], PREAMBLE)
    assert _apply(b, (0.0,)) == [2.0] and _apply(c, (0.0,)) == [3.0]
    assert jit.stats()["builds"] == 2


def test_primed_process_never_runs_a_compiler(store, monkeypatch):
    """Objects, names and both probe verdicts (OpenMP, the host's
    instruction set) are all on disk: a second process starts no
    subprocess from this module."""
    kernels = [_kernel(f"p{n}", f"x[i] += {n}") for n in range(3)]
    jit.load_c(kernels, PREAMBLE, want_openmp=True)
    assert list(store.glob("repro_openmp_*")) and list(store.glob("repro_isa_*"))
    _forget_loaded()
    jit.reset()

    def refuse(*args, **kwargs):
        raise AssertionError(f"subprocess started: {args}")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(subprocess, "run", refuse)
    fns = jit.load_c(kernels, PREAMBLE, want_openmp=True)
    assert [_apply(fn, (0.0,)) for fn in fns] == [[0.0], [1.0], [2.0]]
    stats = jit.stats()
    assert stats["compiles"] == 0 and stats["kernels_built"] == 0
    assert stats["kernels_reused"] == 3 and stats["disk_hits"] >= 1


def _compile_commands(monkeypatch):
    """Every compiler command line this module starts from here on."""
    commands = []
    real = subprocess.Popen

    def recording(args, **kwargs):
        commands.append(list(args))
        return real(args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", recording)
    return commands


def test_kernels_are_built_for_the_hosts_instruction_set(store, monkeypatch):
    commands = _compile_commands(monkeypatch)
    (fn,) = jit.load_c([ADD_ONE], PREAMBLE)
    assert _apply(fn) == [1.0] * 4
    (build,) = commands  # the probe's verdict came from the store
    assert jit._ISA_FLAG in build
    assert "-ffp-contract=off" in build and "-ffast-math" not in build


def test_a_compiler_without_the_isa_flag_builds_with_the_base_flags(
    store, monkeypatch, tmp_path_factory
):
    real = jit._find_cc()
    wrapper = tmp_path_factory.mktemp("bin") / "oldcc"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'for a in "$@"; do [ "$a" = "{jit._ISA_FLAG}" ] && exit 1; done\n'
        f'exec {real} "$@"\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setenv("REPRO_CC", str(wrapper))
    commands = _compile_commands(monkeypatch)
    (fn,) = jit.load_c([ADD_ONE], PREAMBLE)
    assert _apply(fn) == [1.0] * 4
    probe, build = commands
    assert jit._ISA_FLAG in probe and jit._ISA_FLAG not in build
    assert build[1:len(jit._BASE_FLAGS) + 1] == jit._BASE_FLAGS


def test_another_hosts_cpu_is_another_key(store, monkeypatch):
    """A store shared between hosts: the feature string is part of every
    kernel's key, so neither is served the other's object."""
    kernels = [_kernel(f"h{n}", f"x[i] += {n}") for n in range(3)]
    jit.load_c(kernels, PREAMBLE)
    mine = set(jit._KERNELS)
    _forget_loaded()
    monkeypatch.setattr(jit, "_FEATURES", jit._cpu_features() + " avx1024")
    jit.load_c(kernels, PREAMBLE)
    assert len(mine) == 3 and not mine & set(jit._KERNELS)
    assert jit.stats()["kernels_built"] == 6
    assert len(list(store.glob("repro_isa_*"))) == 2  # probed per host


def test_compiler_upgrade_is_a_new_key(store, monkeypatch, tmp_path_factory):
    """The key holds the resolved binary's size and mtime, not only its
    path: the same path with a new binary rebuilds."""
    real = jit._find_cc()
    wrapper = tmp_path_factory.mktemp("bin") / "mycc"
    wrapper.write_text(f'#!/bin/sh\nexec {real} "$@"\n')
    wrapper.chmod(0o755)
    monkeypatch.setenv("REPRO_CC", str(wrapper))
    jit.load_c([ADD_ONE], PREAMBLE)
    _forget_loaded()
    jit.load_c([ADD_ONE], PREAMBLE)
    assert jit.stats()["kernels_built"] == 1  # same compiler: from disk
    stamp = wrapper.stat().st_mtime_ns + 5_000_000_000
    os.utime(wrapper, ns=(stamp, stamp))
    _forget_loaded()
    jit.load_c([ADD_ONE], PREAMBLE)
    assert jit.stats()["kernels_built"] == 2
    assert len(list(store.glob("repro_k_*.so"))) == 2


_ORDER_CHILD = """
import ctypes, json, sys
from repro.runtime import jit

def kernel(label, inc):
    return jit.KernelSource(
        label,
        "void %s(double* x, int64_t n)\\n"
        "{ for (int64_t i = 0; i < n; ++i) x[i] += %d; }\\n"
        % (jit.SYMBOL, inc),
        (ctypes.c_void_p, ctypes.c_int64),
    )

x, shared, y = kernel("x", 1), kernel("shared", 2), kernel("y", 3)
programs = {"A": [x, shared], "B": [shared, y]}
for name in sys.argv[1]:
    jit.load_c(programs[name], "#include <stdint.h>\\n")
print(json.dumps(jit.stats()))
"""


def _run_order(store, order):
    env = dict(os.environ, REPRO_JIT_DIR=str(store),
               PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", _ORDER_CHILD, order],
        env=env, capture_output=True, text=True, cwd=REPO, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("first, second", [("AB", "BA"), ("BA", "AB")])
def test_build_order_does_not_matter_to_the_next_process(
    store, first, second
):
    """The store is per kernel: whichever program built the shared kernel
    first, a second process building in the other order builds nothing."""
    cold = _run_order(store, first)
    assert cold["kernels_requested"] == 4 and cold["kernels_built"] == 3
    assert cold["kernels_reused"] == 1 and cold["cache_repairs"] == 0
    warm = _run_order(store, second)
    assert warm["kernels_built"] == 0 and warm["compiles"] == 0
    assert warm["kernels_reused"] == 4 and warm["disk_hits"] >= 1


def test_default_threads_env(monkeypatch):
    monkeypatch.setenv("REPRO_THREADS", "3")
    assert jit.default_threads() == 3
    monkeypatch.setenv("REPRO_THREADS", "0")
    assert jit.default_threads() == 1


def test_stats_reset(fresh_engine, monkeypatch):
    monkeypatch.setenv("REPRO_CC", _NO_CC)
    jit.COUNTERS.add("compiles", 2)
    jit.COUNTERS.add("compile_seconds", 0.5)
    assert jit.stats()["compiles"] >= 2
    jit.reset()
    stats = jit.stats()
    assert stats["compiles"] == 0 and stats["compile_seconds"] == 0.0
