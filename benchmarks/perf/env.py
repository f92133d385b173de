"""The fixed environment of every benchmark process, and the host
fingerprint recorded beside the numbers (standard library only)."""

from __future__ import annotations

import os
import pathlib
import platform
import shutil
import subprocess
import sys
from typing import Dict, Optional

#: the repository (or checkout) root: benchmarks/perf/env.py -> root
ROOT = pathlib.Path(__file__).resolve().parents[2]
#: everything the benchmark writes lives here (ignored by git)
WORK = ROOT / ".bench_build" / "perf"
JIT_PRIMED = WORK / "jit"
TMP = WORK / "tmp"
RESULTS = WORK / "results"

#: the backend and engine every number is taken on (README, "Fixed
#: environment"); tracing is switched on per process, never inherited
FIXED = {
    "REPRO_BACKEND": "compiled",
    "REPRO_JIT": "cgen",
    "REPRO_THREADS": "1",
}


def child_env(jit_dir: pathlib.Path, *, backend: str = "compiled",
              trace: bool = False) -> Dict[str, str]:
    """The environment of one child: every inherited ``REPRO_*`` is
    dropped, then the fixed set is put in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(FIXED)
    env["REPRO_BACKEND"] = backend
    env["REPRO_JIT_DIR"] = str(jit_dir)
    # temporary files (the C compiler's, too) stay inside the checkout
    env["TMPDIR"] = str(TMP)
    if trace:
        env["REPRO_TRACE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # numerical libraries must not start threads of their own beside the
    # one rank loop being timed
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _first_line(cmd) -> Optional[str]:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = (out.stdout or out.stderr).splitlines()
    return lines[0].strip() if lines else None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def cache_sizes() -> Dict[str, str]:
    """Data/unified cache sizes of cpu0 as sysfs reports them."""
    out: Dict[str, str] = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            out[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    return _first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])


def host_fingerprint(numpy_version: Optional[str] = None) -> Dict[str, object]:
    """What a number has to be read against: the machine, the compiler
    and interpreter versions, and the commit."""
    cc = shutil.which(os.environ.get("CC", "cc")) or shutil.which("gcc")
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "caches": cache_sizes(),
        "cc": _first_line([cc, "--version"]) if cc else None,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "fixed_env": dict(FIXED),
    }
