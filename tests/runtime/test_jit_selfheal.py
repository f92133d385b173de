"""JIT kernel-store self-healing: a damaged entry under
``REPRO_JIT_DIR`` — an object that does not load (torn write, disk
error, partial copy), a kernel name that dangles, an object that loads
but lacks the kernel's symbol — triggers a rebuild of that kernel in
place with a once-per-process warning, not a crash on every subsequent
run.

Within one process ``dlopen`` dedups by pathname and returns the
already-loaded (healthy) handle regardless of what is on disk, so the
fresh-process-meets-corrupt-cache scenario cannot be reproduced with a
real ``ctypes.CDLL`` here.  Most tests therefore stub ``CDLL`` to fail
on the planted corrupt payloads — modelling what a fresh process's
``dlopen`` would do — and one end-to-end test runs a genuinely fresh
interpreter against the damaged cache.  Corruption always goes through
unlink-then-write: overwriting the mapped inode in place would SIGBUS
this process.
"""

import ctypes
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.runtime import jit
from tests.runtime.test_jit import _forget_loaded

#: the checkout this file is in (child processes import its ``src``)
ROOT = str(pathlib.Path(__file__).resolve().parents[2])

PREAMBLE = "#include <stdint.h>\n"
SRC = (
    f"void {jit.SYMBOL}(double* x, int64_t n)\n"
    "{ for (int64_t i = 0; i < n; ++i) x[i] += 1.0; }\n"
)
KERNEL = jit.KernelSource(
    "add_one", SRC, (ctypes.c_void_p, ctypes.c_int64)
)
OTHER = KERNEL._replace(label="add_two", source=SRC.replace("1.0", "2.0"))


def _load(kernel=KERNEL):
    (flight,) = jit.load_c([kernel], PREAMBLE)
    return flight.result()


_REAL_CDLL = ctypes.CDLL


@pytest.fixture
def cgen(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_JIT", "cgen")
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    jit.reset(engine=True)
    if jit._find_cc() is None:
        pytest.skip("no C compiler on this machine")
    jit.reset()  # also re-arms the once-per-process corruption warning
    _forget_loaded()  # the kernel key is the same in every test
    yield tmp_path
    monkeypatch.delenv("REPRO_JIT", raising=False)
    jit.reset(engine=True)


@pytest.fixture
def fresh_dlopen(monkeypatch):
    """Make ``CDLL`` behave like a fresh process's dlopen: corrupt bytes
    planted by :func:`_corrupt` raise ``OSError`` instead of being served
    from the process-wide handle cache."""
    planted = set()

    def cdll(path, *args, **kwargs):
        with open(path, "rb") as fh:
            if fh.read() in planted:
                raise OSError(f"{path}: invalid ELF header")
        return _REAL_CDLL(path, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    return planted


def _sole_so(cache_dir):
    (sopath,) = cache_dir.glob("repro_o_*.so")
    return sopath


def _sole_name(cache_dir):
    (name,) = cache_dir.glob("repro_k_*.so")
    return name


def _corrupt(sopath, blob, planted):
    # unlink first: the healthy inode may be mmapped by this process
    sopath.unlink()
    sopath.write_bytes(blob)
    planted.add(blob)


def _call(fn):
    x = np.zeros(3)
    fn(x.ctypes.data, 3)
    return list(x)


def test_corrupt_cached_so_is_rebuilt_in_place(cgen, fresh_dlopen):
    _load()
    sopath = _sole_so(cgen)
    _corrupt(sopath, b"\x7fELF this is not a loadable object", fresh_dlopen)
    _forget_loaded()  # fresh process-level state, stale disk cache

    with pytest.warns(jit.JitCacheWarning, match="rebuil"):
        fn = _load()
    assert _call(fn) == [1.0, 1.0, 1.0]

    stats = jit.stats()
    assert stats["cache_repairs"] == 1
    assert stats["compiles"] == 2  # original + the rebuild
    # the overwritten artifact is healthy again: next load is a disk hit
    _forget_loaded()
    _load()
    assert jit.stats()["disk_hits"] == 1


def test_truncated_so_is_rebuilt(cgen, fresh_dlopen):
    _load()
    sopath = _sole_so(cgen)
    blob = sopath.read_bytes()
    _corrupt(sopath, blob[: len(blob) // 3], fresh_dlopen)
    _forget_loaded()
    with pytest.warns(jit.JitCacheWarning):
        fn = _load()
    assert _call(fn) == [1.0, 1.0, 1.0]


def test_corruption_warning_fires_once_per_process(cgen, fresh_dlopen):
    _load()
    sopath = _sole_so(cgen)

    def corrupt_and_reload(blob):
        _corrupt(sopath, blob, fresh_dlopen)
        _forget_loaded()
        return _load()

    with pytest.warns(jit.JitCacheWarning):
        corrupt_and_reload(b"garbage one")
    with warnings.catch_warnings():
        warnings.simplefilter("error", jit.JitCacheWarning)
        corrupt_and_reload(b"garbage two")  # silent repair the second time
    assert jit.stats()["cache_repairs"] == 2


def test_healthy_cache_never_warns(cgen):
    _load()
    _forget_loaded()
    with warnings.catch_warnings():
        warnings.simplefilter("error", jit.JitCacheWarning)
        _load()
    assert jit.stats()["cache_repairs"] == 0


def test_fresh_process_heals_corrupt_cache(cgen):
    """End to end with a real dlopen: a brand-new interpreter pointed at
    a damaged cache warns once, rebuilds, and computes correctly."""
    _load()
    sopath = _sole_so(cgen)
    sopath.unlink()
    sopath.write_bytes(b"\x7fELF torn write")

    child = (
        "import json, warnings, numpy as np, ctypes\n"
        "from repro.runtime import jit\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        f"    (fn,) = jit.load_c([jit.KernelSource('add_one', {SRC!r},\n"
        f"        (ctypes.c_void_p, ctypes.c_int64))], {PREAMBLE!r})\n"
        "x = np.zeros(3)\n"
        "fn.result()(x.ctypes.data, 3)\n"
        "print(json.dumps({\n"
        "    'warned': [str(w.message) for w in caught\n"
        "               if issubclass(w.category, jit.JitCacheWarning)],\n"
        "    'repairs': jit.stats()['cache_repairs'],\n"
        "    'result': list(x),\n"
        "}))\n"
    )
    env = dict(os.environ, REPRO_JIT="cgen", REPRO_JIT_DIR=str(cgen),
               PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["repairs"] == 1
    assert len(out["warned"]) == 1 and "rebuil" in out["warned"][0]
    assert out["result"] == [1.0, 1.0, 1.0]


def test_dangling_kernel_name_is_rebuilt(cgen, fresh_dlopen):
    # (the stub reads the file first, as a fresh process's dlopen would)
    _load()
    _sole_so(cgen).unlink()  # the name now points at nothing
    _forget_loaded()
    with pytest.warns(jit.JitCacheWarning, match="rebuil"):
        fn = _load()
    assert _call(fn) == [1.0, 1.0, 1.0]
    assert jit.stats()["cache_repairs"] == 1
    assert _sole_name(cgen).resolve() == _sole_so(cgen)


def test_object_without_the_kernels_symbol_heals_in_place(cgen):
    """``dlopen`` accepts a complete object that simply lacks the symbol
    (what a source truncated on a function boundary used to publish):
    the entry counts as damaged and is rebuilt under the same name."""
    _load()
    name = _sole_name(cgen)
    _load(OTHER)
    (other_obj,) = set(cgen.glob("repro_o_*.so")) - {name.resolve()}
    # a valid object holding some other kernel, under this kernel's name
    name.unlink()
    name.write_bytes(other_obj.read_bytes())
    _forget_loaded()
    jit.reset()
    with pytest.warns(jit.JitCacheWarning, match="rebuil"):
        fn = _load()
    assert _call(fn) == [1.0, 1.0, 1.0]
    stats = jit.stats()
    assert stats["cache_repairs"] == 1 and stats["kernels_built"] == 1
    assert name.is_symlink()
    # healed: the next process neither repairs nor builds
    _forget_loaded()
    jit.reset()
    _load()
    stats = jit.stats()
    assert stats["cache_repairs"] == 0 and stats["kernels_built"] == 0


def test_two_cold_processes_on_one_directory_never_repair(cgen):
    """Sources go through pid-suffixed temporaries like objects do: two
    processes building the same kernels at once cannot truncate the file
    the other one's compiler is reading."""
    child = (
        "import ctypes, json\n"
        "from repro.runtime import jit\n"
        "kernels = [jit.KernelSource('k%d' % n,\n"
        f"    {SRC!r}.replace('1.0', '%d.0' % n),\n"
        "    (ctypes.c_void_p, ctypes.c_int64)) for n in range(12)]\n"
        "for pair in zip(kernels[::2], kernels[1::2]):\n"
        f"    jit.load_c(list(pair), {PREAMBLE!r})\n"
        "print(json.dumps(jit.stats()))\n"
    )
    env = dict(os.environ, REPRO_JIT="cgen", REPRO_JIT_DIR=str(cgen),
               PYTHONPATH="src")
    procs = [
        subprocess.Popen([sys.executable, "-W", "error", "-c", child],
                         env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, cwd=ROOT)
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        stats = json.loads(out)
        assert stats["cache_repairs"] == 0
        assert stats["kernels_requested"] == 12
    assert len(list(cgen.glob("repro_k_*.so"))) == 12
    assert [n for n in os.listdir(cgen) if ".tmp" in n] == []
