"""The benchmark's command line (standard library only: this process
stays small, so that its memory never shows in a child's peak RSS).

Driver form (one workload, one JSON object on the last line)::

    python benchmarks/perf/run.py --workload step_small --seed 12 \\
        --seconds 6 --trace 0

Without ``--workload`` it runs all five workloads as one *set*, their
processes taken in turn so that host drift hits every workload alike,
prints every metric by name and writes the result file. ``--layers``
adds the traced pass, ``--quick`` is the under-a-minute smoke run,
``--sets N`` repeats the set to calibrate, ``--compare A B`` holds two
result files against the bounds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.perf import env, layers, spans, spec, stats

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DEFAULT_SECONDS = 6
DEFAULT_SEED = 12
CHILD_TIMEOUT = 170.0
CALIBRATION = pathlib.Path(__file__).with_name("calibration.json")


class BenchError(RuntimeError):
    """A child failed or the environment cannot give a valid number."""


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------
def spawn(task: Dict[str, object], jit_dir: pathlib.Path, *,
          backend: str = "compiled", trace: bool = False) -> Dict[str, object]:
    """Run one child to its end and return the JSON object it printed."""
    env.TMP.mkdir(parents=True, exist_ok=True)
    task = dict(task, spawned_at=time.time())
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf.child", json.dumps(task)],
        cwd=env.ROOT, env=env.child_env(jit_dir, backend=backend, trace=trace),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{task['workload']}/{task['mode']} exited with "
            f"{proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# one workload, one run
# ---------------------------------------------------------------------------
class WorkloadRun:
    """The processes of one workload in one run, started one at a time
    by the caller (so that a set can take the workloads in turn)."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 processes: Optional[int] = None):
        self.name = name
        self.wl = spec.WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.processes = processes or self.wl["processes"]
        # operations one process times: fixed by --seconds (spec.py),
        # and the same whatever the number of processes, so that a quick
        # or traced run times the same loop
        window = seconds * self.wl["share"] / self.wl["processes"]
        self.ops = max(self.wl["min_ops"],
                       round(window / self.wl["nominal_op_s"]))
        self.cold = bool(self.wl.get("cold"))
        self.ref: Optional[Dict[str, object]] = None
        self.plain: List[Dict[str, object]] = []
        self.setups: List[Dict[str, object]] = []
        self.traced: Optional[Dict[str, object]] = None
        self.probes: Dict[str, object] = {"notes": {}}

    def _task(self, mode: str) -> Dict[str, object]:
        return {"workload": self.name, "mode": mode, "seed": self.seed,
                "ops": self.ops}

    def _measure(self, trace: bool) -> Dict[str, object]:
        if not self.cold:
            return spawn(self._task("measure"), env.JIT_PRIMED, trace=trace)
        # a cold start: this process gets a JIT directory of its own
        env.TMP.mkdir(parents=True, exist_ok=True)
        jit_dir = pathlib.Path(tempfile.mkdtemp(prefix="jit-", dir=env.TMP))
        try:
            return spawn(self._task("measure"), jit_dir, trace=trace)
        finally:
            shutil.rmtree(jit_dir, ignore_errors=True)

    def prepare(self) -> None:
        """The untimed processes: the reference, which also primes the
        JIT directory when it runs on the compiled backend, and else
        the priming process."""
        in_numpy = self.wl["kind"] == "step" or self.cold
        env.JIT_PRIMED.mkdir(parents=True, exist_ok=True)
        self.ref = spawn(
            self._task("reference"), env.JIT_PRIMED,
            backend="numpy" if in_numpy else "compiled",
        )
        if in_numpy and not self.cold:
            spawn(self._task("prime"), env.JIT_PRIMED)

    def process(self) -> None:
        self.plain.append(self._measure(trace=False))

    def setup_process(self) -> None:
        self.setups.append(
            spawn(dict(self._task("measure"), ops=0), env.JIT_PRIMED))

    def trace_pass(self) -> None:
        if self.wl.get("executor") != "processes":
            self.traced = self._measure(trace=True)
        self.probes = spawn(self._task("probes"), env.JIT_PRIMED)

    # -- checks ---------------------------------------------------------
    def _output_checks(self) -> Tuple[int, List[str]]:
        """(checks made, one line per failed check)."""
        bad: List[str] = []
        checks = 0
        measured = self.plain + ([self.traced] if self.traced else [])
        for index, child in enumerate(measured):
            got, want = child["check"], self.ref["check"]
            if "digest" in want:
                checks += 1
                if got["digest"] != want["digest"]:
                    bad.append(f"process {index}: state digest differs "
                               "from the reference process")
                if "all_equal" in got:
                    checks += 1
                    if not got["all_equal"]:
                        bad.append(f"process {index}: run() calls disagree")
            for key, expected in want.get("keys", {}).items():
                checks += 1
                if got["keys"].get(key) != expected:
                    bad.append(f"process {index}: response {key} differs "
                               "from a direct run()")
            checks += 1
            compiles = child["counters"]["jit"]["compiles"]
            if self.cold and not compiles:
                bad.append(f"process {index}: a cold start compiled nothing")
            if not self.cold and compiles:
                bad.append(f"process {index}: {compiles} JIT compiles in a "
                           "primed process")
        if self.ref.get("ok") is False:
            bad.append("reference run() reported violations")
        return checks, bad

    def result(self) -> Dict[str, object]:
        ops = stats.pooled([c["ops"] for c in self.plain])
        checks, bad = self._output_checks()
        measured = (self.plain + self.setups
                    + ([self.traced] if self.traced else []))
        out: Dict[str, object] = {
            "end_to_end": {
                "setup_s": statistics.median(
                    c["setup_s"] for c in self.plain + self.setups),
                "peak_rss_mb": statistics.median(
                    c["rss_mb"] for c in self.plain),
            },
            "timings": layers.timings(self.wl["kind"], self.plain),
            "detail": {
                # where the first process's set-up went (self times of
                # the benchmark-side spans under "setup")
                "setup_parts_s": spans.self_time_by_name([
                    sp for sp in self.plain[0]["spans"]
                    if sp["name"] == "setup" or sp["parent"] == 0
                ]),
                "setup_s": [c["setup_s"] for c in self.plain + self.setups],
                "rss_self_mb": [c["rss_self_mb"] for c in self.plain],
                "rss_child_mb": [c["rss_child_mb"] for c in self.plain],
            },
            "op_summary": stats.summarize(ops),
            "attempted": sum(c["attempted"] for c in measured) + checks,
            "failed": sum(c["failed"] for c in measured) + len(bad),
            "failed_checks": bad,
            "numpy": self.plain[0].get("numpy"),
        }
        out["correct"] = out["failed"] == 0
        if self.trace:
            out["per_layer"] = layers.layer_table(
                self.name, self.plain, self.traced, self.probes, self.ref)
            out["notes"] = self.probes.get("notes", {})
        return out

    def artifacts(self) -> Dict[str, object]:
        """Spans and trees of the traced pass, for the result directory."""
        out = {"spans": [s for c in self.plain for s in c["spans"]]}
        if self.traced:
            out["traced_spans"] = self.traced["spans"]
            out["obs_tree"] = self.traced["layers"]["tree"]
        return out


def run_set(names: Sequence[str], seed: int, seconds: float, trace: bool,
            processes: Optional[int] = None) -> Dict[str, WorkloadRun]:
    """All processes of ``names``: references first, then the timed
    processes in turn across the workloads, the set-up-only ones, then
    the traced passes."""
    runs = {n: WorkloadRun(n, seed, seconds, trace, processes) for n in names}
    for run in runs.values():
        run.prepare()
    for index in range(max(r.processes for r in runs.values())):
        for run in runs.values():
            if index < run.processes:
                run.process()
    if processes is None:       # a quick run sets up once per workload
        for run in runs.values():
            for _ in range(run.wl.get("setup_only", 0)):
                run.setup_process()
    if trace:
        for run in runs.values():
            run.trace_pass()
    return runs


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------
def _units() -> Dict[str, str]:
    out = {name: unit for name, unit, _, _ in spec.END_TO_END}
    out.update({name: unit for name, unit, _ in spec.PER_LAYER})
    return out


def validate(metrics: Dict[str, Dict[str, object]], trace: bool) -> None:
    """Names, units and shape of what is about to be printed."""
    wanted = ([m[0] for m in spec.PER_LAYER] if trace
              else [m[0] for m in spec.END_TO_END])
    if sorted(metrics) != sorted(wanted):
        raise BenchError(f"metric names differ from the specification: "
                         f"{sorted(set(metrics) ^ set(wanted))}")
    for name, cell in metrics.items():
        if not NAME.match(name) or not UNIT.match(cell["unit"]):
            raise BenchError(f"bad metric name or unit: {name!r} {cell!r}")
        if not isinstance(cell["value"], (int, float)):
            raise BenchError(f"{name}: value is not a number")


def driver_line(result: Dict[str, object], trace: bool) -> str:
    units = _units()
    values = result["per_layer"] if trace else result["end_to_end"]
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    validate(metrics, trace)
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_table(name: str, result: Dict[str, object]) -> None:
    units = _units()
    s = result["op_summary"]
    print(f"[{name}] correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for line in result["failed_checks"]:
        print(f"  FAILED CHECK: {line}")
    for block in ("end_to_end", "timings"):
        for metric, value in result[block].items():
            print(f"  {metric:<44} {value:>14.6g} {units[metric]}")
    tail = (f" p{s['tail_percentile']}={s['tail']:.6g}"
            if s["tail_percentile"] else "")
    detail = result["detail"]
    parts = ", ".join(f"{k} {v:.3g}" for k, v in
                      detail["setup_parts_s"].items() if v >= 1e-3)
    samples = ", ".join(f"{v:.4g}" for v in detail["setup_s"])
    print(f"  set-up samples: {samples} s; of the first process: {parts}")
    print(f"  operation: n={s['n']} floor={s['floor']:.6g} q1={s['q1']:.6g} "
          f"median={s['median']:.6g} q3={s['q3']:.6g}{tail} s; rss self="
          f"{detail['rss_self_mb']} child={detail['rss_child_mb']}")
    for metric, value in result.get("per_layer", {}).items():
        if value and metric not in result["timings"]:
            print(f"  {metric:<44} {value:>14.6g} {units[metric]}")
    for key, value in result.get("notes", {}).items():
        print(f"  note {key} = {value}")


def write_result(path: pathlib.Path, sets: List[Dict[str, object]],
                 args: argparse.Namespace, numpy_version) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "schema": 1,
        "host": env.host_fingerprint(numpy_version),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "sets": sets,
    }, indent=1) + "\n")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# calibration and comparison
# ---------------------------------------------------------------------------
def _pairs(sets: List[Dict[str, object]]) -> Dict[tuple, List[float]]:
    """(workload, metric) -> its value in each set; the end-to-end
    metrics and the ungated timings alike."""
    out: Dict[tuple, List[float]] = {}
    for one in sets:
        for workload, result in one.items():
            for block in ("end_to_end", "timings"):
                for metric, value in result[block].items():
                    out.setdefault((workload, metric), []).append(value)
    return out


def print_calibration(sets: List[Dict[str, object]]) -> None:
    """Median, quartiles, interquartile spread and largest pairwise
    difference of every (workload, metric) over the sets."""
    bounds = {name: bound for name, _, _, bound in spec.END_TO_END}
    print(f"{'workload':<11} {'metric':<15} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'max pair':>9} {'bound':>6}")
    for (workload, metric), values in sorted(_pairs(sets).items()):
        q1, med, q3 = stats.quartiles(values)
        bound = bounds.get(metric)
        print(f"{workload:<11} {metric:<15} {med:>12.6g} {q1:>12.6g} "
              f"{q3:>12.6g} {stats.spread(values):>8.3f} "
              f"{stats.max_pairwise_diff(values):>9.3f} "
              f"{'none' if bound is None else format(bound, '.2f'):>6}")


def _exact_counters(sets: List[Dict[str, object]]) -> Dict[tuple, set]:
    """(workload, counter) -> the values it took over the sets that
    carry a layer table."""
    out: Dict[tuple, set] = {}
    for one in sets:
        for workload, result in one.items():
            for name in spec.EXACT_COUNTERS:
                if "per_layer" in result:
                    out.setdefault((workload, name), set()).add(
                        result["per_layer"][name])
    return out


def compare(path_a: str, path_b: str) -> int:
    """Hold B against A. An end-to-end metric whose run-to-run spread is
    wider than its bound is *unresolved*, neither unchanged nor a
    regression, unless every set of one file reads better than every set
    of the other; otherwise worse by more than the bound is a
    regression. The timings have no bound and are listed with their
    spread. Exact counters are listed when they differ."""
    sets_a = json.loads(pathlib.Path(path_a).read_text())["sets"]
    sets_b = json.loads(pathlib.Path(path_b).read_text())["sets"]
    a, b = _pairs(sets_a), _pairs(sets_b)
    recorded = (json.loads(CALIBRATION.read_text())["spread"]
                if CALIBRATION.exists() else {})
    bounds = {name: bound for name, _, _, bound in spec.END_TO_END}
    higher = {name for name, _, better in spec.PER_LAYER
              if better == "higher"}
    regressions = 0
    print(f"{'workload':<11} {'metric':<15} {'A':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        bound = bounds.get(metric)
        sign = -1.0 if metric in higher else 1.0
        med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
        worse = (med_b / med_a - 1) if sign > 0 else (med_a / med_b - 1)
        # spread: from the files' own sets when they hold several, else
        # the one recorded at calibration
        own = [stats.spread(v) for v in (a[key], b[key]) if len(v) > 1]
        wide = max(own) if own else recorded.get(f"{workload}/{metric}")
        # a spread wider than the bound leaves a difference unresolved,
        # unless both files hold several sets and every set of one side
        # reads better than every set of the other
        several = len(a[key]) > 1 and len(b[key]) > 1
        apart = several and (
            max(sign * v for v in b[key]) < min(sign * v for v in a[key])
            or min(sign * v for v in b[key]) > max(sign * v for v in a[key])
        )
        if bound is None:
            verdict = "not gated"
        elif wide is not None and wide > bound and not apart:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSION"
            regressions += 1
        else:
            verdict = "no regression"
        print(f"{workload:<11} {metric:<15} {med_a:>12.6g} {med_b:>12.6g} "
              f"{med_b / med_a:>7.3f} "
              f"{'none' if bound is None else format(bound, '.2f'):>6} "
              f"{'' if wide is None else format(wide, '.3f'):>7}  {verdict}")
    counts_a, counts_b = _exact_counters(sets_a), _exact_counters(sets_b)
    shared = sorted(set(counts_a) & set(counts_b))
    moved = [k for k in shared if counts_a[k] != counts_b[k]
             or len(counts_a[k]) > 1]
    for workload, name in moved:
        print(f"{workload:<11} {name}: A {sorted(counts_a[workload, name])} "
              f"B {sorted(counts_b[workload, name])}  COUNT DIFFERS")
    if shared and not moved:
        print(f"{len(shared)} exact counters identical in A and B")
    return 1 if regressions else 0


# ---------------------------------------------------------------------------
def parse(argv: Sequence[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--layers", action="store_true",
                   help="add the traced pass (per-layer table)")
    p.add_argument("--quick", action="store_true",
                   help="one process per workload, a fifth of the time")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--out", type=pathlib.Path,
                   default=env.RESULTS / "result.json")
    return p.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if args.compare:
        return compare(*args.compare)
    if not (env.ROOT / "src" / "repro" / "__init__.py").exists():
        print("benchmarks.perf: no src/repro beside the benchmark; it "
              "measures the repository it sits in", file=sys.stderr)
        return 2
    try:
        if args.workload:
            trace = bool(args.trace)
            run = run_set([args.workload], args.seed, args.seconds,
                          trace)[args.workload]
            result = run.result()
            print_table(args.workload, result)
            print(driver_line(result, trace))
            return 0
        seconds = args.seconds / 5 if args.quick else args.seconds
        processes = 1 if args.quick else None
        sets: List[Dict[str, object]] = []
        numpy_version = None
        for index in range(args.sets):
            # another seed per set, as the driver gives every run its own
            runs = run_set(list(spec.WORKLOADS), args.seed + index, seconds,
                           args.layers, processes)
            results = {name: run.result() for name, run in runs.items()}
            for name, result in results.items():
                print_table(name, result)
                driver_line(result, False)          # shape check
                if args.layers:
                    driver_line(result, True)
                    art = args.out.parent / f"artifacts-{name}.json"
                    art.parent.mkdir(parents=True, exist_ok=True)
                    art.write_text(json.dumps(runs[name].artifacts()))
                numpy_version = result.pop("numpy")
            sets.append(results)
        if args.sets > 1:
            print_calibration(sets)
        write_result(args.out, sets, args, numpy_version)
        ok = all(r["correct"] for one in sets for r in one.values())
        return 0 if ok else 1
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmarks.perf: {exc}", file=sys.stderr)
        return 3
