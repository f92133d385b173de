"""The JIT engine and the kernel store of the compiled CPU backend.

The ``compiled`` backend (:mod:`repro.sdfg.codegen_compiled`) lowers each
fused SDFG kernel to a scalar loop nest and needs *some* way to run that
nest at machine speed:

- ``cgen`` — the loop nest is printed as C99, compiled with the system C
  compiler (``-O3 -shared -fPIC -ffp-contract=off``, never ``-ffast-math``,
  for the host's own instruction set when the compiler can target it)
  and loaded through :mod:`ctypes`. Chosen whenever a C compiler exists,
  so the backend works on a bare Python toolchain.
- ``none`` — there is no compiler; the ``compiled`` backend degrades to
  the NumPy emission of the lowered SDFG with a single warning (see
  :func:`repro.runtime.compile_cache.get_or_compile`).

A ``REPRO_CC`` that names no compiler leaves the engine ``none``.

**The kernel is the unit of identity.** A kernel is printed under the
placeholder name :data:`SYMBOL`; its key is a hash of that text together
with everything else that decides its machine code (the C preamble, the
flags, the compiler binary's ``(realpath, size, mtime)``, the host's CPU
feature string), and its symbol
is ``repro_k_<key>``. Which program asked for it is not part of the key,
so a stencil used by N programs — or by N rank threads at once — is one
kernel. A request (:func:`load_c`) resolves each
kernel in three steps:

1. the process-wide table: a kernel already loaded, or being resolved by
   another thread, is waited for and shared (single flight per kernel —
   there is no process-wide build lock);
2. the disk store under ``REPRO_JIT_DIR`` (default
   ``$TMPDIR/repro-jit-<uid>``): ``repro_k_<key>.so`` is a *name*, a
   symlink to the object file that holds the kernel, whichever program
   or process built it;
3. the builder: the kernels still missing are *recorded* in the calling
   thread's :func:`batch` — asking for a kernel and waiting for it are
   two steps, so a caller that knows all its programs
   (``DynamicalCore.prepare``) asks for every kernel of every program
   before the compiler starts once. When the thread's outermost batch
   exits, everything recorded is split into at most as many translation
   units as this process may use CPUs (``os.sched_getaffinity``; kernels
   of different flag sets or preambles never share one), balanced by
   source size, compiled concurrently (one ``Popen`` each, then
   ``wait``), loaded, and published — first the object
   ``repro_o_<hash of its keys>.so``, then one name per kernel, each by
   an atomic rename. A request outside any batch is a batch of its own.
   A batch opened with ``background=True`` (``DynamicalCore.prepare``)
   hands what it recorded to the *background builder* instead: one
   thread that builds the batches handed to it in order, with one
   compiler fewer than the CPUs (at least one), so that the caller keeps
   a CPU to run the NumPy plans of its programs on until their kernels
   land (``docs/performance.md``, "Cold start"). Anybody else who asks
   for one of those kernels waits for it. The builder is no daemon: the
   interpreter waits for it at exit, and a process worker before it
   ends and the process executor before it forks call :func:`wait`.

What :func:`load_c` hands out is the kernel's slot in the table
(``result()`` is the entry point). Outside a batch every slot has landed
when the request returns; inside one it lands when the batch exits (or,
handed over, when the background builder has built it), and a
wait before that builds what the batch has recorded so far instead of
deadlocking on itself. A batch whose block raises builds nothing and
fails what it recorded: those slots leave the table and keep their error,
so whoever still holds one (a cached plan) asks again.

Everything written goes through a pid-suffixed temporary name (sources
too: a name shared between processes is only ever the target of a
rename — :func:`publish`); stale temporaries of dead builders are swept
on the first open of the directory. A name that dangles, an object that
does not load, an object without the kernel's symbol: each is rebuilt
in place, counted in ``cache_repairs`` and warned about once per process
(:func:`heal`, :class:`JitCacheWarning`). A translation unit the
compiler rejects raises :class:`JitCompileError` naming its kernels and
leaves no object or name behind; units built beside it are kept.

What the directory holds::

    repro_k_<key>.so      a kernel's name: symlink to the object holding it
    repro_o_<hash>.so/.c  an object file (one translation unit) and its source
    repro_isa_<hash>      the compiler's verdict on -march=native, per host
    repro_openmp_<hash>   ... and on -fopenmp
    repro_t_<hash>.rec    the templates of one orchestrated-program family
    repro_p_<key>.rec     the image of one compiled plan
    *.tmp<pid>[.c]        somebody's write in progress

The last two kinds of entry are the programs that *call* the kernels:
:mod:`repro.runtime.compile_cache` ("Program records") writes and reads
them through the same :func:`publish` and :func:`heal`, so that a
process on a primed directory neither compiles a kernel nor traces or
lowers a program.

:func:`stats` (which waits for the background builder first) counts
kernels (``kernels_requested`` = ``kernels_built``
+ ``kernels_reused``, the latter from the table or from disk), entries
into the builder (``builds``: one per batch that had anything missing;
``background_builds`` of them handed over), translation units
(``compiles``), object files opened without building (``disk_hits``),
the wall seconds callers were blocked on a build (``compile_seconds`` —
wall, not the sum over concurrent compilers; a wait for the background
builder, in a kernel call or in :func:`wait`, included) and the wall
seconds the background builder built
(``background_seconds``). They reach the obs report footer — the "JIT
warmup" attribution the paper's productivity argument needs to be
honest about.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import re
import shutil
import tempfile
import threading
import time
import warnings
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.obs.counters import Counters, register

__all__ = [
    "JitCacheWarning",
    "JitUnavailableError",
    "JitCompileError",
    "KernelSource",
    "SYMBOL",
    "engine_name",
    "available",
    "batch",
    "publish",
    "heal",
    "load_c",
    "default_threads",
    "jit_dir",
    "stats",
    "sweep_stale_tmps",
    "reset",
    "wait",
]

#: the function name a kernel is printed under; :func:`load_c` replaces
#: it by the kernel's own symbol ``repro_k_<key>``
SYMBOL = "repro_k_SYMBOL"

_LOCK = threading.Lock()
_ENGINE: Optional[str] = None
#: compiler flag → whether the compiler takes it (see :func:`_flag_works`)
_PROBED: Dict[str, bool] = {}
_FEATURES: Optional[str] = None
#: engine + kernel-store attribution for the obs report footer (the
#: engine is this process's own). The set shares ``_LOCK``: code that
#: holds it increments ``_COUNTS`` in place
COUNTERS = register("jit", Counters(
    sums=(
        "kernels_requested", "kernels_built", "kernels_reused", "builds",
        "background_builds", "compiles", "compile_seconds",
        "background_seconds", "disk_hits", "cache_repairs",
    ),
    local={
        "engine": lambda: _ENGINE if _ENGINE is not None else "(unresolved)",
    },
    lock=_LOCK,
))
_COUNTS = COUNTERS.values
_WARNED_CORRUPT = False


def stats() -> Dict[str, object]:
    """The counters, once the background builder is idle: a build in
    flight has counted nothing of what it will build yet, so a read
    waits for it (:func:`wait`) instead of reporting it half done."""
    wait()
    return COUNTERS.snapshot()


class JitCacheWarning(RuntimeWarning):
    """An entry of the kernel store under ``REPRO_JIT_DIR`` was damaged
    and has been rebuilt in place."""


def heal(path: str, exc: BaseException) -> None:
    """Remove a damaged entry of the store — a kernel name, an object, a
    program record — for whoever found it to rebuild in place. Counted
    in ``cache_repairs``; warned about once per process (a shared
    directory full of stale objects would otherwise spam every run)."""
    global _WARNED_CORRUPT
    with _LOCK:
        _COUNTS["cache_repairs"] += 1
        first = not _WARNED_CORRUPT
        _WARNED_CORRUPT = True
    _unlink(path)
    if first:
        warnings.warn(
            f"corrupt JIT disk-cache entry {path!r} "
            f"({type(exc).__name__}: {exc}); rebuilding in place — "
            f"further repairs this process will be silent",
            JitCacheWarning,
            stacklevel=3,
        )


def publish(path: str, write: Callable[[str], None]) -> None:
    """Give ``path`` its content whole or not at all: ``write(tmp)``
    creates a pid-suffixed temporary beside it, an atomic rename gives it
    the name other processes read. A writer that dies in between leaves
    only the temporary, which :func:`sweep_stale_tmps` reaps."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise


class JitUnavailableError(RuntimeError):
    """No usable JIT engine: no C compiler is found."""


class JitCompileError(RuntimeError):
    """The C compiler rejected generated source (a codegen bug)."""


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
    """Resolve (once) the active engine name: ``"cgen"`` when a C
    compiler is found, else ``"none"``."""
    global _ENGINE
    with _LOCK:
        if _ENGINE is None:
            _ENGINE = "cgen" if _find_cc() is not None else "none"
        return _ENGINE


def available() -> bool:
    """Whether kernels can be built here: an engine other than
    ``"none"`` resolved and a C compiler is found. ``False`` makes
    :func:`repro.runtime.compile_cache.get_or_compile` answer a
    ``compiled`` request with NumPy emission, warned once."""
    return engine_name() != "none" and _find_cc() is not None


def default_threads() -> int:
    """Threads per rank for compiled loop nests (``REPRO_THREADS``)."""
    env = os.environ.get("REPRO_THREADS")
    if env:
        return max(1, int(env))
    return max(1, min(os.cpu_count() or 1, 8))


def jit_dir() -> str:
    """On-disk directory of the kernel store.

    The first open per process also sweeps stale ``*.tmp<pid>``
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

#: objects, names and the probe verdicts end in ``.tmp<pid>`` while they
#: are written, sources in ``.tmp<pid>.c`` (the compiler wants the suffix)
_TMP_PATTERN = re.compile(r"\.tmp(\d+)(?:\.c)?$")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


#: the age past which a tmp whose pid looks alive is abandoned (pid reuse)
TMP_MAX_AGE_SECONDS = 600.0


def sweep_stale_tmps(path: str) -> List[str]:
    """Remove orphaned ``repro_*.tmp<pid>`` files beside the cache.

    A build writes every file to a pid-suffixed temporary name and
    ``os.replace``s it into place; a compiler (or process) death in
    between leaves the tmp behind forever. A tmp is stale when its owning
    pid is gone, or — to cover pid reuse — when it is older than
    :data:`TMP_MAX_AGE_SECONDS` and not our own. Returns the removed
    paths.
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
                if now - os.path.getmtime(full) < TMP_MAX_AGE_SECONDS:
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
# the process-wide kernel table
# ---------------------------------------------------------------------------


class KernelSource(NamedTuple):
    """One kernel as the C engine receives it."""

    #: the kernel's label in its program (error messages only)
    label: str
    #: one C function named :data:`SYMBOL`
    source: str
    #: ctypes argument types of that function (it returns nothing)
    argtypes: tuple


class _Flight:
    """The slot of one kernel in the process-wide table: whoever creates
    it resolves the kernel, everybody else waits on it. It is what a
    request hands out; one that failed (``error``) has left the table and
    stays failed — its holder asks for the kernel again."""

    __slots__ = ("key", "done", "value", "error", "handed")

    def __init__(self, key: str) -> None:
        self.key = key
        self.done = threading.Event()
        self.value: object = None
        self.error: Optional[BaseException] = None
        #: whether the background builder has it (:func:`_hand_over`)
        self.handed = False

    def resolve(self, value: object) -> None:
        self.value = value
        self.done.set()

    def result(self) -> object:
        if not self.done.is_set():
            # own claims before anybody else's: a wait inside a batch
            # first builds what the batch has recorded so far
            _flush()
            t0 = time.perf_counter()
            self.done.wait()
            if self.handed:  # a caller blocked on the background builder
                COUNTERS.add("compile_seconds", time.perf_counter() - t0)
        if self.error is not None:
            raise self.error
        return self.value


#: kernel key → its flight; entry points stay loaded for the process
_KERNELS: Dict[str, _Flight] = {}
#: object file path → its ``ctypes.CDLL`` (one ``dlopen`` per object)
_OBJECTS: Dict[str, ctypes.CDLL] = {}


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:20]


def _claim(keys: Sequence[str]) -> Tuple[List[_Flight], List[_Flight]]:
    """The table's flight for every key, and those among them that
    nobody had asked for yet: the caller's to resolve."""
    flights: List[_Flight] = []
    mine: List[_Flight] = []
    with _LOCK:
        _COUNTS["kernels_requested"] += len(keys)
        for key in keys:
            flight = _KERNELS.get(key)
            if flight is None:
                flight = _KERNELS[key] = _Flight(key)
                mine.append(flight)
            else:
                _COUNTS["kernels_reused"] += 1
            flights.append(flight)
    return flights, mine


def _fail(flights: Iterable[_Flight], exc: BaseException) -> None:
    """Whatever ``flights`` still has unresolved fails with ``exc`` — for
    the threads waiting on it too — and is dropped from the table, so
    that a later request tries again."""
    with _LOCK:
        for flight in flights:
            if not flight.done.is_set():
                del _KERNELS[flight.key]
                flight.error = exc
                flight.done.set()


# ---------------------------------------------------------------------------
# cgen engine
# ---------------------------------------------------------------------------

#: bit-exactness-critical flag set: contraction (FMA) off, no fast-math.
#: ``-fno-math-errno`` only drops the errno side channel (sqrt stays the
#: correctly-rounded hardware instruction), enabling inline sqrtsd.
_BASE_FLAGS = [
    "-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno",
]


def _cc_identity(cc: str) -> str:
    """What tells one compiler from another in every key of the store:
    the resolved binary's path, size and modification time (an upgrade
    changes the latter two), without running it."""
    real = os.path.realpath(shutil.which(cc) or cc)
    st = os.stat(real)
    return f"{real}:{st.st_size}:{st.st_mtime_ns}"


#: what the host adds to the flag set when its compiler takes it: the
#: full instruction set of the CPU the process runs on. Vector add, mul,
#: div, sqrt, compare and select are per-lane IEEE and kernels hold no
#: reductions, so wider lanes compute the same bits; contraction stays off.
_ISA_FLAG = "-march=native"

#: probed flag → (name of its persisted verdict, what must compile)
_PROBES = {
    "-fopenmp": ("openmp", "#include <omp.h>\n"
                 "int touch(void){return omp_get_max_threads();}\n"),
    _ISA_FLAG: ("isa", "double touch(double x){return x + 1.0;}\n"),
}


def _cpu_features() -> str:
    """What tells this host's instruction set from another's: the CPU
    flags the kernel reports (the machine name where it reports none).
    Part of every kernel key, so a store shared between hosts never
    hands one an object built for the other."""
    global _FEATURES
    if _FEATURES is None:
        found = ""
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith(("flags", "Features")):
                        found = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
        _FEATURES = found or "-".join(os.uname()[3:])
    return _FEATURES


def _flag_works(cc: str, identity: str, flag: str) -> bool:
    """Whether ``cc`` builds with ``flag``: probed once per compiler
    identity and host and kept beside the objects, so a primed process
    does not run the compiler at all."""
    works = _PROBED.get(flag)
    if works is None:
        name, source = _PROBES[flag]
        path = os.path.join(
            jit_dir(),
            f"repro_{name}_"
            + _digest(identity, _cpu_features(), flag, *_BASE_FLAGS),
        )
        try:
            with open(path) as fh:
                verdict = fh.read().strip()
        except OSError:
            verdict = ""
        if verdict not in ("0", "1"):
            import subprocess

            with tempfile.TemporaryDirectory() as tmp:
                cpath = os.path.join(tmp, "probe.c")
                with open(cpath, "w") as fh:
                    fh.write(source)
                proc = subprocess.run(
                    [cc, *_BASE_FLAGS, flag, cpath, "-o",
                     os.path.join(tmp, "probe.so")],
                    capture_output=True,
                )
            verdict = "01"[proc.returncode == 0]
            publish(path, lambda tmp: _write_text(tmp, verdict + "\n"))
        works = _PROBED[flag] = verdict == "1"
    return works


def _build_width() -> int:
    """Compilers to run at once: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


class _Request(NamedTuple):
    """One kernel a batch claimed and did not find on disk."""

    directory: str
    #: compiler and flags
    command: Tuple[str, ...]
    preamble: str
    kernel: KernelSource
    flight: _Flight

    @property
    def symbol(self) -> str:
        return "repro_k_" + self.flight.key

    @property
    def group(self) -> tuple:
        """What two requests must share to share a translation unit."""
        return self.directory, self.command, self.preamble


def _units(requests: List[_Request], width: int) -> List[List[_Request]]:
    """Split the requests into translation units for ``width`` compilers.
    Only kernels of one directory, command line and preamble can share a
    unit; every such group gets one, and the compilers left over go, one
    by one, to the group with the most source per unit. Inside a group
    the units are of about equal source size (largest kernel first onto
    the lightest). One unit per kernel would pay the compiler's fixed
    start-up cost per kernel, one unit in all would leave CPUs idle."""
    groups: Dict[tuple, List[_Request]] = {}
    for request in requests:
        groups.setdefault(request.group, []).append(request)
    size = {
        group: sum(len(r.kernel.source) for r in members)
        for group, members in groups.items()
    }
    count = dict.fromkeys(groups, 1)
    for _ in range(width - len(groups)):
        splittable = [g for g in groups if count[g] < len(groups[g])]
        if not splittable:
            break
        count[max(splittable, key=lambda g: size[g] / count[g])] += 1
    units: List[List[_Request]] = []
    for group, members in groups.items():
        bins: List[List[_Request]] = [[] for _ in range(count[group])]
        load = [0] * len(bins)
        for request in sorted(members, key=lambda r: -len(r.kernel.source)):
            lightest = load.index(min(load))
            bins[lightest].append(request)
            load[lightest] += len(request.kernel.source)
        # by symbol: the object's name does not depend on request order
        units += [sorted(unit, key=lambda r: r.symbol) for unit in bins]
    return units


def _open_object(path: str, built: bool = False) -> ctypes.CDLL:
    """The process's one handle on an object file; opening one that this
    process did not just build is a disk hit."""
    with _LOCK:
        lib = _OBJECTS.get(path)
    if lib is None:
        lib = ctypes.CDLL(path)
        with _LOCK:
            if _OBJECTS.setdefault(path, lib) is lib and not built:
                _COUNTS["disk_hits"] += 1
            lib = _OBJECTS[path]
    return lib


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _from_disk(directory: str, symbol: str):
    """The kernel's entry point if the store holds it, else ``None``. A
    damaged entry (the name dangles, the object does not load, the object
    lacks the symbol) is removed for the builder to replace."""
    name = os.path.join(directory, symbol + ".so")
    if not os.path.lexists(name):
        return None
    target = os.path.realpath(name)
    try:
        return getattr(_open_object(target), symbol)
    except (OSError, AttributeError) as exc:
        heal(name, exc)
        if isinstance(exc, OSError):
            # whatever else points at the unloadable object now dangles
            # and is repaired in turn; other kernels of an object that
            # only lacks this symbol stay valid
            _unlink(target)
        return None


def _typed(cfn, kernel: KernelSource):
    cfn.argtypes = kernel.argtypes
    cfn.restype = None
    return cfn


#: ``requests``: what this thread's open batch has recorded, if one is open
_OPEN = threading.local()


@contextlib.contextmanager
def batch(background: bool = False):
    """Ask for kernels now, wait for the compiler once: inside the block
    :func:`load_c` claims its kernels, takes what the store holds and
    *records* the rest; when the thread's outermost batch exits, all of
    it is built together (:func:`_build`) and the flights resolve. If
    the block raises, nothing is built and every recorded kernel fails
    with that exception — for the threads waiting on one too.

    The batch yields a list. With ``background``, what the outermost
    batch recorded goes to the background builder at the exit instead
    (:func:`_hand_over`), and the list then holds its flights: the
    exit returns at once, and those flights land while the caller goes
    on (``DynamicalCore.prepare`` runs NumPy plans meanwhile)."""
    handed: List[_Flight] = []
    if getattr(_OPEN, "requests", None) is not None:
        yield handed  # nested: the outermost batch builds
        return
    requests: List[_Request] = []
    _OPEN.requests = requests
    try:
        yield handed
        if background:
            handed += _hand_over(requests[:])
            del requests[:]
        else:
            _flush()
    except BaseException as exc:
        _fail((r.flight for r in requests), exc)
        raise
    finally:
        _OPEN.requests = None


def _flush() -> None:
    """Build what this thread's open batch has recorded so far: the batch
    is over, or a kernel is waited for before it is."""
    requests = getattr(_OPEN, "requests", None)
    if requests:
        todo = _unresolved(requests)
        del requests[:]
        if not todo:
            return
        COUNTERS.add("builds")
        try:
            _build(todo, _build_width(), "compile_seconds")
        except BaseException as exc:
            _fail((r.flight for r in todo), exc)
            raise


def _unresolved(requests: List[_Request]) -> List[_Request]:
    # (a claim that failed while its batch went on is nobody's any more)
    return [r for r in requests if not r.flight.done.is_set()]


#: batches handed to the background builder, in order, and the thread
#: building them (``None``: idle); :func:`wait` waits on ``_IDLE``
_HANDED: List[List[_Request]] = []
_BUILDER: Optional[threading.Thread] = None
_IDLE = threading.Condition(_LOCK)


def _hand_over(requests: List[_Request]) -> List[_Flight]:
    """Give ``requests`` to the background builder, which is started if
    it is idle; their flights. The builder is one thread running one
    compiler fewer than the process may use CPUs (at least one), so the
    caller keeps a CPU. It is no daemon: the interpreter waits for it at
    exit, and no compiler outlives its process."""
    global _BUILDER
    requests = _unresolved(requests)
    if not requests:
        return []
    for request in requests:
        request.flight.handed = True
    with _LOCK:
        _COUNTS["builds"] += 1
        _COUNTS["background_builds"] += 1
        _HANDED.append(requests)
        start = _BUILDER is None
        if start:
            _BUILDER = threading.Thread(
                target=_build_handed, name="repro-jit-builder"
            )
    if start:
        _BUILDER.start()
    return [r.flight for r in requests]


def _build_handed() -> None:
    """The background builder's loop: every batch handed over, then idle.
    What fails a build is kept by its flights, and whoever asks for one
    of them again (``CompiledSDFG.request``) builds it or raises."""
    global _BUILDER
    width = max(1, _build_width() - 1)
    while True:
        with _LOCK:
            if not _HANDED:
                _BUILDER = None
                _IDLE.notify_all()
                return
            requests = _HANDED.pop(0)
        try:
            _build(requests, width, "background_seconds")
        except Exception as exc:  # kept by the flights
            _fail((r.flight for r in requests), exc)


def wait() -> None:
    """Return once the background builder is idle: every batch handed to
    it is built or failed. Called before the process forks a worker
    (which would inherit flights that no thread of its own resolves),
    when a worker ends and by :func:`stats`. Time spent waiting is time
    blocked on a build: it goes to ``compile_seconds``."""
    t0 = time.perf_counter()
    with _IDLE:
        if _BUILDER is None:
            return
        while _BUILDER is not None:
            _IDLE.wait()
    COUNTERS.add("compile_seconds", time.perf_counter() - t0)


def load_c(
    kernels: Sequence[KernelSource], preamble: str,
    want_openmp: bool = False,
) -> List[_Flight]:
    """The flight of every kernel, in order; its ``result()`` is the
    ctypes entry point.

    Kernels are looked up in the process-wide table, then in the disk
    store; what is still missing joins the thread's :func:`batch` (a
    request outside one is a batch of its own) and is compiled when that
    exits (module docstring). Outside a batch every flight returned has
    landed — or the request raises what failed it. Two requests for the
    same text get the same flight, whoever made them.
    """
    cc = _find_cc()
    if cc is None:
        raise JitUnavailableError(
            "no C compiler found "
            "(searched cc/gcc/clang; set REPRO_CC to override)"
        )
    identity = _cc_identity(cc)
    flags = list(_BASE_FLAGS)
    if _flag_works(cc, identity, _ISA_FLAG):
        flags.append(_ISA_FLAG)
    if want_openmp and _flag_works(cc, identity, "-fopenmp"):
        flags.append("-fopenmp")
    salt = _digest(preamble, identity, _cpu_features(), *flags)
    keys = [_digest(salt, kernel.source) for kernel in kernels]
    source_of = dict(zip(keys, kernels))
    with batch():
        flights, mine = _claim(keys)
        try:
            directory = jit_dir()
            missing = []
            for flight in mine:
                kernel = source_of[flight.key]
                cfn = _from_disk(directory, "repro_k_" + flight.key)
                if cfn is None:
                    missing.append(_Request(
                        directory, (cc, *flags), preamble, kernel, flight
                    ))
                else:
                    flight.resolve(_typed(cfn, kernel))
            COUNTERS.add("kernels_reused", len(mine) - len(missing))
        except BaseException as exc:
            _fail(mine, exc)
            raise
        _OPEN.requests.extend(missing)
    if _OPEN.requests is None:
        # own claims are built; now everybody else's
        for flight in flights:
            flight.result()
    return flights


def _build(requests: List[_Request], width: int, seconds: str) -> None:
    """Compile the requests as ``width`` concurrent translation units
    (:func:`_units`); load and publish every unit that compiled, then
    raise for those that did not — each of which fails its own kernels
    with an error that names them. The wall time goes to counter
    ``seconds``."""
    import subprocess

    t0 = time.perf_counter()
    pid = os.getpid()
    running = []
    failed: List[str] = []
    try:
        for unit in _units(requests, width):
            directory, command, preamble = unit[0].group
            base = os.path.join(
                directory, "repro_o_" + _digest(*(r.symbol for r in unit))
            )
            with open(f"{base}.tmp{pid}.c", "w") as fh:
                fh.write(preamble)
                for request in unit:
                    fh.write("\n")
                    fh.write(
                        request.kernel.source.replace(SYMBOL, request.symbol)
                    )
            running.append((subprocess.Popen(
                [*command, f"{base}.tmp{pid}.c", "-o", f"{base}.so.tmp{pid}",
                 "-lm"],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            ), unit, base))
        for proc, unit, base in running:
            _, stderr = proc.communicate()
            # the source stays for inspection; it is complete, so it may
            # take the name other processes read
            os.replace(f"{base}.tmp{pid}.c", base + ".c")
            if proc.returncode != 0:
                labels = ", ".join(r.kernel.label for r in unit)
                failed.append(
                    f"{unit[0].command[0]} failed on generated source "
                    f"({base}.c) of kernels {labels}:\n"
                    f"{stderr.decode(errors='replace')}"
                )
                _fail((r.flight for r in unit), JitCompileError(failed[-1]))
                continue
            os.replace(f"{base}.so.tmp{pid}", base + ".so")
            lib = _open_object(base + ".so", built=True)
            objname = os.path.basename(base) + ".so"
            for request in unit:
                cfn = _typed(getattr(lib, request.symbol), request.kernel)
                # the kernel's name points at the (already published)
                # object; relative, so the directory can be moved
                publish(
                    os.path.join(request.directory, request.symbol + ".so"),
                    lambda tmp: os.symlink(objname, tmp),
                )
                request.flight.resolve(cfn)
            COUNTERS.add("compiles")
            COUNTERS.add("kernels_built", len(unit))
    finally:
        # an interrupted build leaves no compiler running, and neither
        # it nor a failed one leaks a partial file beside the store
        for proc, _, base in running:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            _unlink(f"{base}.tmp{pid}.c")
            _unlink(f"{base}.so.tmp{pid}")
        COUNTERS.add(seconds, time.perf_counter() - t0)
    if failed:
        raise JitCompileError("\n".join(failed))


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


def reset(engine: bool = False) -> None:
    """Zero the counters, once the background builder is idle; with
    ``engine=True`` also forget the resolved engine so the next
    :func:`engine_name` looks for the compiler again (tests)."""
    global _WARNED_CORRUPT, _ENGINE, _FEATURES
    wait()
    COUNTERS.reset()
    with _LOCK:
        _WARNED_CORRUPT = False
        if engine:
            _ENGINE = None
            _FEATURES = None
            _PROBED.clear()
