"""JIT engine abstraction for the compiled CPU backend.

The ``compiled`` backend (:mod:`repro.sdfg.codegen_compiled`) lowers each
fused SDFG kernel to a scalar loop nest and needs *some* way to run that
nest at machine speed. Three engines are supported, probed in order:

- ``numba`` — the loop nest is emitted as Python source and wrapped in
  ``numba.njit(fastmath=False)`` (``parallel=True`` + ``prange`` when more
  than one thread is configured). Preferred when numba is importable.
- ``cgen`` — the loop nest is emitted as C99, compiled with the system C
  compiler (``-O3 -shared -fPIC -ffp-contract=off``, never ``-ffast-math``)
  and loaded through :mod:`ctypes`. Chosen when numba is absent but a C
  compiler exists, so the backend works on a bare Python toolchain.
- ``none`` — neither is available; the backend registry degrades to the
  ``dataflow`` backend with a single warning (see
  :mod:`repro.dsl.backend_compiled`).

``REPRO_JIT=numba|cgen|pyloops|none`` forces an engine (``pyloops``
executes the generated Python loop nest uninterpreted — orders of
magnitude slower, but it validates the emitted semantics without any
toolchain and is what the test suite uses to cross-check emitters).

Shared objects are cached on disk under ``REPRO_JIT_DIR`` (default
``$TMPDIR/repro-jit-<uid>``) keyed by a content hash of the C source and
compiler flags, so warm processes skip compilation entirely. Compile
counts and wall time are surfaced via :func:`stats` into the obs report
footer — the "JIT warmup" attribution the paper's productivity argument
needs to be honest about.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
import threading
import time
import warnings
from typing import Dict, List, Optional

__all__ = [
    "JitCacheWarning",
    "JitUnavailableError",
    "JitCompileError",
    "JitConfigError",
    "engine_name",
    "available",
    "compile_c",
    "compile_py",
    "default_threads",
    "jit_dir",
    "k_block_override",
    "merge_stats",
    "stats",
    "sweep_stale_tmps",
    "reset",
]

_ENGINES = ("numba", "cgen", "pyloops", "none")

_LOCK = threading.Lock()
#: serializes C builds within this process (see :func:`compile_c`)
_BUILD_LOCK = threading.Lock()
_ENGINE: Optional[str] = None
_CC: Optional[str] = None
_OPENMP: Optional[bool] = None
_COMPILES = 0
_COMPILE_SECONDS = 0.0
_DISK_HITS = 0
_CACHE_REPAIRS = 0
_WARNED_CORRUPT = False
#: pins loaded shared libraries (and numba dispatchers) for the process
_LOADED: Dict[str, object] = {}


class JitCacheWarning(RuntimeWarning):
    """A cached shared object under ``REPRO_JIT_DIR`` was damaged and
    has been rebuilt in place."""


def _warn_corrupt_cache(sopath: str, exc: BaseException) -> None:
    """Count a cache repair; warn only once per process (a shared cache
    directory full of stale objects would otherwise spam every run)."""
    global _CACHE_REPAIRS, _WARNED_CORRUPT
    with _LOCK:
        _CACHE_REPAIRS += 1
        first = not _WARNED_CORRUPT
        _WARNED_CORRUPT = True
    if first:
        warnings.warn(
            f"corrupt JIT disk-cache entry {sopath!r} "
            f"({type(exc).__name__}: {exc}); rebuilding in place — "
            f"further repairs this process will be silent",
            JitCacheWarning,
            stacklevel=3,
        )


class JitUnavailableError(RuntimeError):
    """No usable JIT engine (or the forced one is not installed)."""


class JitCompileError(RuntimeError):
    """The C compiler rejected generated source (a codegen bug)."""


class JitConfigError(ValueError):
    """An environment setting of the compiled backend has an unusable
    value."""


def _numba_available() -> bool:
    try:
        import numba  # noqa: F401

        return True
    except Exception:
        return False


def _find_cc() -> Optional[str]:
    forced = os.environ.get("REPRO_CC")
    if forced:
        return forced if shutil.which(forced) else None
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def engine_name() -> str:
    """Resolve (once) the active engine name.

    ``REPRO_JIT`` forces a choice; otherwise numba is preferred, then a C
    compiler, then ``"none"``. A forced engine whose toolchain is missing
    still resolves — :func:`compile_c`/:func:`compile_py` raise
    :class:`JitUnavailableError` at use, which the backend's degradation
    path turns into a warn-once fallback.
    """
    global _ENGINE
    with _LOCK:
        if _ENGINE is None:
            forced = os.environ.get("REPRO_JIT", "").strip().lower()
            if forced:
                if forced not in _ENGINES:
                    raise ValueError(
                        f"REPRO_JIT={forced!r}: expected one of {_ENGINES}"
                    )
                _ENGINE = forced
            elif _numba_available():
                _ENGINE = "numba"
            elif _find_cc() is not None:
                _ENGINE = "cgen"
            else:
                _ENGINE = "none"
        return _ENGINE


def available() -> bool:
    """Whether a usable engine resolved (i.e. not ``"none"``)."""
    return engine_name() != "none"


def default_threads() -> int:
    """Threads per rank for compiled loop nests (``REPRO_THREADS``)."""
    env = os.environ.get("REPRO_THREADS")
    if env:
        return max(1, int(env))
    return max(1, min(os.cpu_count() or 1, 8))


def k_block_override() -> Optional[int]:
    """``REPRO_KBLOCK`` as a positive int, ``None`` when unset — the one
    reader, so kernel lowering and the compile-cache key agree."""
    env = os.environ.get("REPRO_KBLOCK", "").strip()
    if not env:
        return None
    if not env.isdecimal() or int(env) < 1:
        raise JitConfigError(
            f"REPRO_KBLOCK={env!r}: expected a positive integer"
        )
    return int(env)


def jit_dir() -> str:
    """On-disk cache directory for compiled shared objects.

    The first open per process also sweeps stale ``*.so.tmp<pid>``
    leftovers from builds that died between the tmp-write and the atomic
    rename (see :func:`sweep_stale_tmps`).
    """
    global _TMP_SWEPT
    path = os.environ.get("REPRO_JIT_DIR")
    if not path:
        uid = getattr(os, "getuid", lambda: 0)()
        path = os.path.join(tempfile.gettempdir(), f"repro-jit-{uid}")
    os.makedirs(path, exist_ok=True)
    if not _TMP_SWEPT:
        _TMP_SWEPT = True
        sweep_stale_tmps(path)
    return path


#: one stale-tmp sweep per process, on first cache open
_TMP_SWEPT = False

_TMP_PATTERN = re.compile(r"\.so\.tmp(\d+)$")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def sweep_stale_tmps(path: str, max_age_seconds: float = 600.0) -> List[str]:
    """Remove orphaned ``repro_*.so.tmp<pid>`` files beside the cache.

    A build writes the object to a pid-suffixed temporary name and
    ``os.replace``s it into place; a compiler (or process) death in
    between leaves the tmp behind forever. A tmp is stale when its owning
    pid is gone, or — to cover pid reuse — when it is older than
    ``max_age_seconds`` and not our own. Returns the removed paths.
    """
    removed: List[str] = []
    try:
        names = os.listdir(path)
    except OSError:
        return removed
    now = time.time()
    for name in names:
        match = _TMP_PATTERN.search(name)
        if match is None:
            continue
        full = os.path.join(path, name)
        pid = int(match.group(1))
        if pid != os.getpid() and _pid_alive(pid):
            # a live concurrent build: only reap it once it is clearly
            # abandoned (pid reuse can make a dead owner look alive)
            try:
                if now - os.path.getmtime(full) < max_age_seconds:
                    continue
            except OSError:
                continue
        try:
            os.unlink(full)
            removed.append(full)
        except OSError:
            pass
    return removed


# ---------------------------------------------------------------------------
# cgen engine
# ---------------------------------------------------------------------------

#: bit-exactness-critical flag set: contraction (FMA) off, no fast-math.
#: ``-fno-math-errno`` only drops the errno side channel (sqrt stays the
#: correctly-rounded hardware instruction), enabling inline sqrtsd.
_BASE_FLAGS = [
    "-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno",
]


def _openmp_works(cc: str) -> bool:
    global _OPENMP
    if _OPENMP is None:
        src = "#include <omp.h>\nint touch(void){return omp_get_max_threads();}\n"
        with tempfile.TemporaryDirectory() as tmp:
            cpath = os.path.join(tmp, "probe.c")
            with open(cpath, "w") as fh:
                fh.write(src)
            proc = subprocess.run(
                [cc, *_BASE_FLAGS, "-fopenmp", cpath, "-o",
                 os.path.join(tmp, "probe.so")],
                capture_output=True,
            )
            _OPENMP = proc.returncode == 0
    return _OPENMP


def compile_c(source: str, want_openmp: bool = False) -> ctypes.CDLL:
    """Compile C source to a shared object and load it.

    The object file is content-addressed in :func:`jit_dir`; an existing
    file is loaded without invoking the compiler (a "disk hit"). Builds go
    through a pid-suffixed temporary name plus an atomic rename, so
    concurrent *processes* racing on the same key are safe; *threads* of
    one process share that temporary name, so they build one at a time
    (rank threads reach the same directly-called stencil together once
    their programs bind instead of trace).
    """
    cc = _find_cc()
    if cc is None:
        raise JitUnavailableError(
            "cgen engine selected but no C compiler found "
            "(searched cc/gcc/clang; set REPRO_CC to override)"
        )
    flags = list(_BASE_FLAGS)
    if want_openmp and _openmp_works(cc):
        flags.append("-fopenmp")
    key = hashlib.sha256(
        "\x1f".join([source, cc, " ".join(flags)]).encode()
    ).hexdigest()[:20]
    sopath = os.path.join(jit_dir(), f"repro_{key}.so")
    with _BUILD_LOCK:
        if key not in _LOADED:
            _LOADED[key] = _load_or_build(source, cc, flags, key, sopath)
        return _LOADED[key]  # type: ignore[return-value]


def _load_or_build(source, cc, flags, key, sopath) -> ctypes.CDLL:
    global _COMPILES, _COMPILE_SECONDS, _DISK_HITS
    lib: Optional[ctypes.CDLL] = None
    if os.path.exists(sopath):
        # a cached object may be damaged (truncated write from a killed
        # process, disk corruption): self-heal by rebuilding in place
        # rather than wedging every process that shares the cache
        try:
            lib = ctypes.CDLL(sopath)
        except OSError as exc:
            _warn_corrupt_cache(sopath, exc)
            try:
                os.unlink(sopath)
            except OSError:
                pass
        else:
            with _LOCK:
                _DISK_HITS += 1
    if lib is None:
        t0 = time.perf_counter()
        cpath = os.path.join(jit_dir(), f"repro_{key}.c")
        tmpso = sopath + f".tmp{os.getpid()}"
        with open(cpath, "w") as fh:
            fh.write(source)
        try:
            proc = subprocess.run(
                [cc, *flags, cpath, "-o", tmpso, "-lm"], capture_output=True
            )
            if proc.returncode != 0:
                raise JitCompileError(
                    f"{cc} failed on generated source ({cpath}):\n"
                    f"{proc.stderr.decode(errors='replace')}"
                )
            os.replace(tmpso, sopath)
        finally:
            # a failed (or interrupted) build must not leak its partial
            # object beside the cache; after the atomic rename this is a
            # no-op
            if os.path.exists(tmpso):
                try:
                    os.unlink(tmpso)
                except OSError:
                    pass
        with _LOCK:
            _COMPILES += 1
            _COMPILE_SECONDS += time.perf_counter() - t0
        lib = ctypes.CDLL(sopath)
    return lib


# ---------------------------------------------------------------------------
# numba / pyloops engines
# ---------------------------------------------------------------------------


def compile_py(source: str, func_name: str, parallel: bool = False):
    """Materialize one emitted Python loop nest.

    Under the ``numba`` engine the function is wrapped in
    ``njit(fastmath=False)``; under ``pyloops`` it is returned as plain
    (slow) Python. ``__prange`` in the source binds to ``numba.prange``
    only when both the engine and ``parallel`` ask for it.
    """
    global _COMPILES, _COMPILE_SECONDS
    import numpy as np

    engine = engine_name()
    namespace: Dict[str, object] = {"np": np, "__prange": range}
    if engine == "numba":
        if not _numba_available():
            raise JitUnavailableError(
                "REPRO_JIT=numba but numba is not importable"
            )
        import numba

        if parallel:
            namespace["__prange"] = numba.prange
        t0 = time.perf_counter()
        exec(compile(source, f"<jit:{func_name}>", "exec"), namespace)
        fn = numba.njit(
            namespace[func_name], fastmath=False, parallel=parallel,
            cache=False,
        )
        with _LOCK:
            _COMPILES += 1
            _COMPILE_SECONDS += time.perf_counter() - t0
        _LOADED[f"py:{func_name}:{id(fn)}"] = fn
        return fn
    if engine == "pyloops":
        exec(compile(source, f"<jit:{func_name}>", "exec"), namespace)
        return namespace[func_name]
    raise JitUnavailableError(
        f"compile_py called under engine {engine!r}"
    )


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


def record_compile_seconds(seconds: float, count: int = 1) -> None:
    """Fold externally-measured JIT work (e.g. numba's lazy first-call
    compilation) into the warmup attribution."""
    global _COMPILES, _COMPILE_SECONDS
    with _LOCK:
        _COMPILES += count
        _COMPILE_SECONDS += seconds


def stats() -> Dict[str, object]:
    """Engine + compile-time attribution for the obs report footer."""
    with _LOCK:
        return {
            "engine": _ENGINE if _ENGINE is not None else "(unresolved)",
            "compiles": _COMPILES,
            "compile_seconds": _COMPILE_SECONDS,
            "disk_hits": _DISK_HITS,
            "cache_repairs": _CACHE_REPAIRS,
        }


def merge_stats(data: Dict[str, object]) -> None:
    """Fold a worker process's counter deltas into this process's JIT
    accounting (engine identity is per-process and is not merged)."""
    global _COMPILES, _COMPILE_SECONDS, _DISK_HITS, _CACHE_REPAIRS
    with _LOCK:
        _COMPILES += int(data.get("compiles", 0))
        _COMPILE_SECONDS += float(data.get("compile_seconds", 0.0))
        _DISK_HITS += int(data.get("disk_hits", 0))
        _CACHE_REPAIRS += int(data.get("cache_repairs", 0))


def reset(engine: bool = False) -> None:
    """Zero the counters; with ``engine=True`` also forget the resolved
    engine so the next :func:`engine_name` re-reads ``REPRO_JIT`` (tests)."""
    global _COMPILES, _COMPILE_SECONDS, _DISK_HITS, _CACHE_REPAIRS, \
        _WARNED_CORRUPT, _ENGINE, _OPENMP
    with _LOCK:
        _COMPILES = 0
        _COMPILE_SECONDS = 0.0
        _DISK_HITS = 0
        _CACHE_REPAIRS = 0
        _WARNED_CORRUPT = False
        if engine:
            _ENGINE = None
            _OPENMP = None
