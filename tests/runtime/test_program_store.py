"""Program records: traced templates and lowered plans that outlive the
process, in the kernel store's directory
(``repro.runtime.compile_cache``, "Program records").

What is checked here is the store itself — a record is found, refused
when anything it depends on has changed, healed when it is damaged, and
never written for what another process could not find again. That a
restored program *is* the program a trace would produce is the oracle of
``tests/orchestration/test_templates.py``.

Cases that need a second process run one: a child interpreter with a
``REPRO_JIT_DIR`` of its own under ``tmp_path``, driving a toy program
whose module is written there too (so that its source can be edited
between two processes).
"""

import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.runtime import compile_cache as cc
from repro.runtime import jit
from tests.orchestration.test_templates import SHAPE, Box, _combine

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _fresh():
    cc.reset(clear=True)
    jit.reset()
    yield
    cc.reset(clear=True)


def _as_a_new_process():
    cc.reset(clear=True)


def _records(level=""):
    folder = pathlib.Path(cc.RECORDS_DIR)
    return sorted(folder.glob(f"repro_{level}*.rec")) if folder.is_dir() else []


def _counts():
    stats = cc.stats()
    return (stats["program_traces"], stats["programs_restored"],
            stats["programs_stale"], stats["misses"], stats["hits"])


# ---------------------------------------------------------------------------
# staleness: a record is refused, and replaced by what is built instead
# ---------------------------------------------------------------------------


def test_another_source_tree_or_interpreter_never_accepts_a_record(
    monkeypatch
):
    """Two checkouts with different sources (or two Pythons, or two
    NumPys) sharing one directory: each finds the other's records stale,
    builds its own and overwrites them in place."""
    _combine(Box())
    assert _counts() == (1, 0, 0, 1, 0)
    names = _records()
    assert len(names) == 2  # one family, one plan
    mine = list(cc._environment())
    for position in range(len(mine)):
        other = list(mine)
        other[position] = "something else"
        for environment in (other, mine):
            _as_a_new_process()
            monkeypatch.setattr(cc, "_ENVIRONMENT", environment)
            _combine(Box())
            # template record stale, plan record stale: traced, compiled
            assert _counts() == (1, 0, 2, 1, 0)
            assert _records() == names
        _as_a_new_process()
        _combine(Box())  # ... and what was overwritten is ours again
        assert _counts() == (0, 1, 0, 0, 1)


def _flag_changes():
    from repro import obs
    from repro.machine import P100

    yield "threads", lambda patch: patch.setenv("REPRO_THREADS", "3")
    yield "machine", lambda patch: (
        patch.setattr(obs.metrics, "observed_machine", lambda: P100),
        patch.setattr(obs.metrics, "observed_machine_name",
                      lambda: P100.name),
    )


@pytest.mark.parametrize("what, change", list(_flag_changes()))
def test_changed_codegen_flags_find_no_plan_record(what, change, monkeypatch):
    """The flags are in the plan's key: the template is restored, the plan
    is lowered for the flags of *this* process and stored beside the
    other one."""
    from repro.dsl import backends

    if jit._find_cc() is None:
        pytest.skip("no C compiler: the compiled backend is not in play")
    jit.reset(engine=True)
    monkeypatch.setattr(backends, "_default_backend", "compiled")
    try:
        _combine(Box())
        _as_a_new_process()
        change(monkeypatch)
        _combine(Box())
        assert _counts() == (0, 1, 0, 1, 0)
        assert len(_records("t_")) == 1 and len(_records("p_")) == 2
        _as_a_new_process()
        _combine(Box())
        assert _counts() == (0, 1, 0, 0, 1)
    finally:
        monkeypatch.undo()
        jit.reset(engine=True)


def test_a_record_of_another_format_is_stale_not_damaged(monkeypatch):
    """A record written in an earlier format is counted stale and
    overwritten, with no repair and no warning."""
    _combine(Box())
    _as_a_new_process()
    monkeypatch.setattr(cc, "_FORMAT", cc._FORMAT + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _combine(Box())
    assert _counts() == (1, 0, 2, 1, 0)
    assert jit.stats()["cache_repairs"] == 0


def test_a_variant_that_never_binds_is_never_decoded():
    """A record holds two variants of one program: a process that binds
    one decodes neither SDFG, nor does the process that traced the
    second and wrote both into the record — the first still packed."""
    small, large = Box(), Box(shape=(8, 6, 4))
    _combine(small)
    _as_a_new_process()
    _combine(large)  # restores the first variant, traces the second
    assert _counts()[:2] == (1, 1)
    assert cc.stats()["sdfgs_decoded"] == 0
    for box in (Box(), Box(shape=(8, 6, 4))):
        _as_a_new_process()
        _combine(box)
        assert _counts()[:2] == (0, 2)
        assert cc.stats()["sdfgs_decoded"] == 0
    # asked for, the SDFG is the one traced
    (family,) = cc._FAMILIES.values()
    shapes = {t.sdfg.arrays["q"].shape for t in family.templates}
    assert shapes == {SHAPE, (8, 6, 4)}
    assert cc.stats()["sdfgs_decoded"] == 2


def test_traced_and_plain_calls_share_one_plan_record():
    """Tracing is no codegen flag: a traced process restores the plan a
    plain one stored, and writes no second record."""
    from repro import obs

    _combine(Box())
    _as_a_new_process()
    tracer = obs.get_tracer()
    enabled = tracer.enabled
    tracer.enable()
    try:
        _combine(Box())
    finally:
        tracer.enabled = enabled
    assert _counts() == (0, 1, 0, 0, 1)
    assert len(_records("p_")) == 1


# ---------------------------------------------------------------------------
# damage: a record that does not load is a miss, healed in place
# ---------------------------------------------------------------------------


def _truncate(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _garbage(data: bytes) -> bytes:
    return b"\x00\xff not a record \xfe" * 7


def _foreign_class(data: bytes) -> bytes:
    """A well-formed record whose pickle asks for ``os.system``."""
    import pickle

    header = data.partition(b"\n")[0]
    return header + b"\n" + pickle.dumps(os.system)


def _foreign_inside(data: bytes) -> bytes:
    """A well-formed record with a template whose SDFG is of a class no
    record may construct."""
    import fractions
    import pickle

    header = data.partition(b"\n")[0]
    template = {"sdfg": fractions.Fraction(1, 2)}
    return header + b"\n" + pickle.dumps([template])


def _wrong_shape(data: bytes) -> bytes:
    """A well-formed record of allowed data that is no template."""
    import pickle

    header = data.partition(b"\n")[0]
    return header + b"\n" + pickle.dumps([{"guards": ((("is", 99),),)}])


def _unresolvable(data: bytes) -> bytes:
    """A well-formed record naming an object that is gone."""
    line, _, body = data.partition(b"\n")
    header = json.loads(line)
    header["manifest"][0][1] = "Box.no_such_program"
    return json.dumps(header).encode() + b"\n" + body


@pytest.mark.parametrize("damage, level", [
    *((damage, level) for level in ("t_", "p_")
      for damage in (_truncate, _garbage, _foreign_class)),
    # (a plan record names nothing by reference and is read as it is)
    *((damage, "t_") for damage in (_unresolvable, _foreign_inside,
                                    _wrong_shape)),
])
def test_a_damaged_record_is_rebuilt_in_place(damage, level):
    _combine(Box())
    (path,) = _records(level)
    sound = path.read_bytes()
    path.unlink()
    path.write_bytes(damage(sound))
    _as_a_new_process()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _combine(Box())  # the result is asserted: never a wrong bind
        _combine(Box())
    assert jit.stats()["cache_repairs"] == 1
    assert len([w for w in caught
                if issubclass(w.category, jit.JitCacheWarning)]) == 1
    # damaged is not stale; only the damaged level is built again
    assert _counts() == ((1, 0, 0, 0, 1) if level == "t_"
                         else (0, 1, 0, 1, 0))
    # rewritten: the next process restores both levels again
    _as_a_new_process()
    jit.reset()
    _combine(Box())
    assert _counts() == (0, 1, 0, 0, 1)
    assert jit.stats()["cache_repairs"] == 0


def test_records_follow_the_kernel_stores_discipline(tmp_path, monkeypatch):
    """Written through a pid-suffixed temporary and an atomic rename, into
    ``REPRO_JIT_DIR`` when nothing says otherwise; a writer that died
    leaves a temporary the first open of the directory sweeps."""
    monkeypatch.setattr(cc, "RECORDS_DIR", None)
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    monkeypatch.setattr(jit, "_TMP_SWEPT", False)
    dead = tmp_path / "repro_t_0123.rec.tmp999999"
    dead.write_bytes(b"half a record")
    _combine(Box())
    names = sorted(p.name for p in tmp_path.iterdir())
    assert [n[:8] for n in names] == ["repro_p_", "repro_t_"]
    assert all(n.endswith(".rec") for n in names)


def test_a_directory_that_cannot_be_written_costs_only_the_records(
    tmp_path, monkeypatch
):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    monkeypatch.setattr(cc, "RECORDS_DIR", str(blocker / "records"))
    with pytest.warns(jit.JitCacheWarning, match="cannot be written"):
        _combine(Box())  # computes, and asserts, the right answer
    stats = cc.stats()
    assert stats["program_traces"] == 1 and stats["programs_stored"] == 0


def test_private_builds_neither_store_nor_restore():
    """``program.build()`` hands out an SDFG its caller transforms in
    place: such a trace is nobody else's template."""
    box, q, out = Box(), np.ones(SHAPE), np.zeros(SHAPE)
    box.combine.build(q, out)
    assert _records("t_") == []
    _combine(Box())  # leaves the family's record
    _as_a_new_process()
    Box().combine.build(q, out)
    assert cc.stats()["program_traces"] == 1
    assert cc.stats()["programs_restored"] == 0


def test_worker_counters_merge_like_their_neighbours():
    cc.COUNTERS.merge({"programs_restored": 8, "programs_stale": 1,
                       "restore_bytes": 1000, "restore_seconds": 0.5})
    cc.COUNTERS.merge({"programs_restored": 8, "programs_stored": 2,
                       "programs_unpersistable": 1})
    stats = cc.stats()
    assert (stats["programs_restored"], stats["programs_stored"],
            stats["programs_stale"], stats["programs_unpersistable"],
            stats["restore_bytes"], stats["restore_seconds"]) \
        == (16, 2, 1, 1, 1000, 0.5)
    from repro.runtime import runtime_summary

    assert runtime_summary()["compile_cache"]["programs_restored"] == 16
    cc.reset(clear=False)
    assert cc.stats()["programs_restored"] == 0


def test_the_report_footer_has_a_programs_line():
    from repro import obs
    from repro.obs import report

    _combine(Box())
    _as_a_new_process()
    obs.enable()
    try:
        _combine(Box())
        text = report()
    finally:
        obs.disable()
        obs.reset()
    (line,) = [ln for ln in text.splitlines()
               if ln.startswith("compile_cache: ")]
    assert "programs_restored 1," in line and "program_traces 0," in line
    assert "programs_stale 0," in line
    assert "orchestrate.restore" in text


# ---------------------------------------------------------------------------
# two processes
# ---------------------------------------------------------------------------

TOY = '''
import numpy as np

from repro.dsl import Field, PARALLEL, computation, interval, stencil
from repro.orchestration import orchestrate

SHAPE = (6, 6, 4)
TWICE = 2.0


@stencil
def scale(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = a * TWICE + 1.0


GAIN = np.float64(2.5)
TIMES = np.int64(3)


def amplify(out, gain, times):
    out *= gain * times


class Amplified:
    @orchestrate
    def run(self, q: np.ndarray, out: np.ndarray):
        scale(q, out, origin=(0, 0, 0), domain=SHAPE)
        amplify(out, GAIN, TIMES)


class Toy:
    def __init__(self):
        self.tmp = np.zeros(SHAPE)

    @orchestrate
    def run(self, q: np.ndarray, out: np.ndarray):
        scale(q, self.tmp, origin=(0, 0, 0), domain=SHAPE)
        scale(self.tmp, out, origin=(0, 0, 0), domain=SHAPE)
'''

CHILD = '''
import json
import sys

import numpy as np

sys.path.insert(0, sys.argv[1])
import toy  # noqa: E402
from repro.runtime import compile_cache as cc  # noqa: E402

from repro.runtime import jit  # noqa: E402

q, out = np.ones(toy.SHAPE), np.zeros(toy.SHAPE)
getattr(toy, sys.argv[2])().run(q, out)
print(json.dumps({"stats": cc.stats(), "value": float(out[0, 0, 0]),
                  "repairs": jit.stats()["cache_repairs"]}))
'''


def _child(script: pathlib.Path, *args, jit_dir, **env):
    proc = subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                 REPRO_JIT_DIR=str(jit_dir), **env),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("edit, value", [
    # what the second process must compute after the edit (q == 1):
    # scale(scale(1)) == (1 * 2 + 1) * 2 + 1 == 7 before any of them
    (("scale(self.tmp, out,", "scale(q, out,"), 3.0),      # the program
    (("a * TWICE + 1.0", "a * TWICE + 5.0"), 19.0),        # the stencil
    (("TWICE = 2.0", "TWICE = 3.0"), 13.0),                # what it reads
])
def test_edited_source_is_traced_again_never_bound_wrong(edit, value,
                                                         tmp_path):
    module, script = tmp_path / "toy.py", tmp_path / "child.py"
    module.write_text(TOY)
    script.write_text(CHILD)
    store = tmp_path / "store"

    def run():
        got = _child(script, tmp_path, "Toy", jit_dir=store,
                     REPRO_BACKEND="numpy")
        stats = got["stats"]
        return (got["value"], stats["program_traces"],
                stats["programs_restored"], stats["programs_stale"])

    assert run() == (7.0, 1, 0, 0)
    assert run() == (7.0, 0, 1, 0)
    records = sorted(p.name for p in store.glob("repro_t_*.rec"))
    assert len(records) == 1
    assert edit[0] in TOY
    module.write_text(TOY.replace(*edit))
    assert run() == (value, 1, 0, 1)
    assert run() == (value, 0, 1, 0)
    # replaced in place, not piled up
    assert sorted(p.name for p in store.glob("repro_t_*.rec")) == records


#: what the stencils of READS read from outside their own module
CONSTS = '''
FIRST = 0
BIAS = 1.0
'''

READS = '''
import numpy as np

import consts
from repro.dsl import Field, PARALLEL, computation, interval, stencil
from repro.orchestration import orchestrate

SHAPE = (6, 6, 4)
LEVELS = [0]


@stencil
def from_module(a: Field, out: Field):
    with computation(PARALLEL), interval(consts.FIRST, None):
        out = a + 1.0


@stencil(externals={"BIAS": consts.BIAS})
def biased(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = a + BIAS


@stencil
def by_identity(a: Field, out: Field):
    with computation(PARALLEL), interval(LEVELS[0], None):
        out = a + 1.0


class FromModule:
    @orchestrate
    def run(self, q: np.ndarray, out: np.ndarray):
        from_module(q, out, origin=(0, 0, 0), domain=SHAPE)


class Biased:
    @orchestrate
    def run(self, q: np.ndarray, out: np.ndarray):
        biased(q, out, origin=(0, 0, 0), domain=SHAPE)


class ByIdentity:
    @orchestrate
    def run(self, q: np.ndarray, out: np.ndarray):
        by_identity(q, out, origin=(0, 0, 0), domain=SHAPE)
'''


def _reads_child(tmp_path, program):
    """Run ``program`` of READS in a second process on ``tmp_path``'s
    store: (out[0, 0, 0], traces, restored, stale, unpersistable)."""
    got = _child(tmp_path / "child.py", tmp_path, program,
                 jit_dir=tmp_path / "store", REPRO_BACKEND="numpy")
    stats = got["stats"]
    return (got["value"], stats["program_traces"],
            stats["programs_restored"], stats["programs_stale"],
            stats["programs_unpersistable"])


@pytest.mark.parametrize("program, edit, value", [
    # a constant the stencil reads as ``consts.FIRST``: level 0 is no
    # longer written
    ("FromModule", ("FIRST = 0", "FIRST = 1"), 0.0),
    # a value handed in through ``externals=``
    ("Biased", ("BIAS = 1.0", "BIAS = 2.0"), 3.0),
])
def test_what_a_stencil_reads_from_another_module_is_in_its_fingerprint(
        program, edit, value, tmp_path):
    """Neither edit touches the stencil's own file: the record is stale
    because of what the stencil's code reads, and the second process
    computes the new answer."""
    (tmp_path / "toy.py").write_text(READS)
    (tmp_path / "consts.py").write_text(CONSTS)
    (tmp_path / "child.py").write_text(CHILD)
    assert _reads_child(tmp_path, program) == (2.0, 1, 0, 0, 0)
    assert _reads_child(tmp_path, program) == (2.0, 0, 1, 0, 0)
    (tmp_path / "consts.py").write_text(CONSTS.replace(*edit))
    assert _reads_child(tmp_path, program) == (value, 1, 0, 1, 0)


def test_a_stencil_reading_an_identity_only_global_stays_in_memory(
        tmp_path):
    """A list has no value another process could compare: the program
    is counted unpersistable, and every process traces it again."""
    (tmp_path / "toy.py").write_text(READS)
    (tmp_path / "consts.py").write_text(CONSTS)
    (tmp_path / "child.py").write_text(CHILD)
    for _ in range(2):
        assert _reads_child(tmp_path, "ByIdentity") == (2.0, 1, 0, 0, 1)
    assert not list((tmp_path / "store").glob("repro_t_*.rec"))


def test_numpy_scalar_callback_constants_restore_in_a_second_process(
        tmp_path):
    """NumPy pickles a scalar value through a function: the allow-list
    knows it, so the record a cold process writes is one the next can
    read — neither a crash at the first bind nor a heal per process."""
    module, script = tmp_path / "toy.py", tmp_path / "child.py"
    module.write_text(TOY)
    script.write_text(CHILD)
    for restored in (0, 1):
        got = _child(script, tmp_path, "Amplified", jit_dir=tmp_path / "store",
                     REPRO_BACKEND="numpy")
        stats = got["stats"]
        assert got["value"] == 3.0 * 7.5 and got["repairs"] == 0
        assert (stats["program_traces"], stats["programs_stored"],
                stats["programs_restored"], stats["programs_unpersistable"]
                ) == (1 - restored, 1 - restored, restored, 0)


STEP = '''
import dataclasses
import hashlib
import json
import subprocess
import sys

started = []


class Counting(subprocess.Popen):
    def __init__(self, args, *rest, **kwargs):
        started.append(args)
        super().__init__(args, *rest, **kwargs)


subprocess.Popen = Counting  # ``subprocess.run`` goes through it too

from repro import obs  # noqa: E402
from repro.run import EnsembleDriver  # noqa: E402
from repro.runtime import jit, runtime_summary  # noqa: E402
from repro.scenarios import get_scenario  # noqa: E402
from repro.sdfg import plan  # noqa: E402

config = dataclasses.replace(
    get_scenario("baroclinic_wave").default_config(), npx=12, npz=4
)
driver = EnsembleDriver("baroclinic_wave", config, members=(1,), seed=5,
                        diagnostics=False, executor="sequential")
driver.step(1)
checks = plan.COUNTERS.snapshot()["arg_checks"]
driver.step(1)  # the steady step
steady_checks = plan.COUNTERS.snapshot()["arg_checks"] - checks


def kernel_spans(span):
    for name, child in span.children.items():
        if name.startswith("kernel."):
            yield name, child.attrs.get("bytes", 0)
        yield from kernel_spans(child)


digest = hashlib.sha256()
snapshot = driver.snapshot_member(1)
for arrays, tracers in zip(snapshot.arrays, snapshot.tracers):
    for name in ("u", "v", "w", "pt", "delp", "delz"):
        digest.update(arrays[name].tobytes())
    for tracer in tracers:
        digest.update(tracer.tobytes())
jit.wait()  # a cold process's kernels are built in the background
summary = runtime_summary()
driver.close()
print(json.dumps({
    "digest": digest.hexdigest(),
    "cache": summary["compile_cache"], "jit": summary["jit"],
    "subprocesses": len(started), "probes": len(jit._PROBED),
    # the compiler's verdict on the host's instruction set, as this
    # process came to know it
    "isa": jit._PROBED.get(jit._ISA_FLAG),
    "modules": sorted(name for name in sys.modules if name.startswith("repro.")),
    "steady_checks": steady_checks,
    "kernel_spans": dict(kernel_spans(obs.get_tracer().root)),
}))
'''

#: what only tracing, parsing and lowering need: a primed process loads
#: none of it
TRACE_SIDE = {
    "repro.dsl.frontend",
    "repro.orchestration.trace",
    "repro.orchestration.preprocessor",
    "repro.orchestration.closure",
    "repro.sdfg.analysis",
    "repro.sdfg.codegen",
    "repro.sdfg.codegen_compiled",
    "repro.sdfg.loopnest",
}


@pytest.mark.skipif(jit._find_cc() is None, reason="no C compiler")
def test_a_second_process_restores_everything_and_builds_nothing(tmp_path):
    """A small configuration on an empty directory, then on the directory
    it left: the cold process enters the builder once and starts one
    compiler per CPU at most; the primed one traces nothing, compiles
    nothing, starts no subprocess at all (the probes' verdicts are on
    disk), loads neither tracer nor code generator, and computes what the
    first one computed."""
    script, store = tmp_path / "step.py", tmp_path / "store"
    script.write_text(STEP)
    env = dict(REPRO_BACKEND="compiled", REPRO_THREADS="1")
    cold = _child(script, jit_dir=store, **env)
    primed = _child(script, jit_dir=store, **env)
    assert primed["digest"] == cold["digest"]
    for report in (cold, primed):
        assert report["jit"]["engine"] == "cgen"
        assert report["jit"]["cache_repairs"] == 0
        assert report["cache"]["programs_stale"] == 0
        assert report["cache"]["programs_unpersistable"] == 0
    cache, kernels = cold["cache"], cold["jit"]
    assert (cache["program_traces"], cache["program_binds"]) == (4, 20)
    assert (cache["misses"], cache["hits"]) == (4, 0)
    assert (cache["programs_stored"], cache["programs_restored"]) == (4, 0)
    # equal kernels of different programs are one kernel
    assert 0 < kernels["kernels_built"] < kernels["kernels_requested"]
    assert kernels["builds"] == 1
    assert 0 < kernels["compiles"] <= jit._build_width()
    assert cold["subprocesses"] == kernels["compiles"] + cold["probes"]
    assert TRACE_SIDE <= set(cold["modules"])
    cache, kernels = primed["cache"], primed["jit"]
    assert (cache["program_traces"], cache["program_binds"]) == (0, 24)
    assert cache["templates"] == 4
    assert cache["by_backend"] == {"compiled": {"hits": 4, "misses": 0}}
    assert (cache["programs_stored"], cache["programs_restored"]) == (0, 4)
    assert kernels["kernels_requested"] == kernels["kernels_reused"] \
        == cold["jit"]["kernels_requested"]
    assert (kernels["kernels_built"], kernels["builds"],
            kernels["compiles"]) == (0, 0, 0)
    assert kernels["disk_hits"] > 0 and primed["subprocesses"] == 0
    # no subprocess, yet the verdict is known: it was read from the store
    assert primed["isa"] is not None and primed["isa"] == cold["isa"]
    assert not TRACE_SIDE & set(primed["modules"])
    # bound and called from the records alone: no SDFG decoded, and a
    # steady step checks no kernel argument (a cold one neither)
    assert primed["cache"]["sdfgs_decoded"] == 0
    assert primed["steady_checks"] == cold["steady_checks"] == 0
    assert primed["kernel_spans"] == {}
    # a traced call adds spans, not imports: the program span's scratch
    # attributes and each kernel span's bytes come from the restored
    # template, whose SDFG it decodes for them
    traced = _child(script, jit_dir=store, REPRO_TRACE="1", **env)
    assert traced["digest"] == cold["digest"]
    assert traced["cache"]["program_traces"] == 0
    assert traced["cache"]["sdfgs_decoded"] == 4
    assert traced["steady_checks"] == 0
    assert not TRACE_SIDE & set(traced["modules"])
    spans = traced["kernel_spans"]
    assert "kernel.xppm_flux_c0" in spans
    assert all(nbytes > 0 for nbytes in spans.values())


def test_two_cold_processes_on_one_directory_agree(tmp_path):
    """Both trace, both write every record (the last rename wins, either
    is whole), neither leaves a temporary behind, and a third process
    restores what they left."""
    script, store = tmp_path / "step.py", tmp_path / "store"
    script.write_text(STEP)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_JIT_DIR=str(store), REPRO_BACKEND="numpy")
    procs = [
        subprocess.Popen([sys.executable, str(script)], env=env, cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
        for _ in range(2)
    ]
    outs = []
    for proc in procs:
        stdout, stderr = proc.communicate()
        assert proc.returncode == 0, stderr
        outs.append(json.loads(stdout.splitlines()[-1]))
    assert outs[0]["digest"] == outs[1]["digest"]
    assert not [p.name for p in store.iterdir() if ".tmp" in p.name]
    third = _child(script, jit_dir=store, REPRO_BACKEND="numpy")
    assert third["digest"] == outs[0]["digest"]
    assert third["cache"]["program_traces"] == 0
    assert third["cache"]["programs_restored"] == 4
    assert third["cache"]["by_backend"] == {"numpy": {"hits": 4, "misses": 0}}
    assert third["jit"]["cache_repairs"] == 0


# ---------------------------------------------------------------------------
# a bound plan: checked when made, called without a check
# ---------------------------------------------------------------------------


def _state_digest(snapshot) -> str:
    import hashlib

    digest = hashlib.sha256()
    for arrays, tracers in zip(snapshot.arrays, snapshot.tracers):
        for name in sorted(arrays):
            digest.update(arrays[name].tobytes())
        for tracer in tracers:
            digest.update(tracer.tobytes())
    return digest.hexdigest()


@pytest.mark.skipif(jit._find_cc() is None, reason="no C compiler")
def test_a_swap_moves_no_pointer_and_a_reshaped_array_is_refused(
        monkeypatch):
    """Two members through one engine: the swaps copy states into the
    arrays the programs were bound to, so every steady step checks no
    kernel argument and each member ends where it ends alone (on the
    NumPy emission, which takes no pointer). An array of a binding
    reshaped in place no longer fits its kernels: the next call raises
    ``PlanBindError`` instead of computing on it."""
    from repro.dsl import backends
    from repro.fv3.config import DynamicalCoreConfig
    from repro.run import EnsembleDriver
    from repro.sdfg import plan
    from repro.sdfg.plan import PlanBindError

    config = DynamicalCoreConfig(npx=12, npz=4, layout=1, k_split=1,
                                 n_split=1, n_tracers=1)

    def driver(members):
        return EnsembleDriver("baroclinic_wave", config, members=members,
                              seed=3, diagnostics=False)

    alone = {}
    monkeypatch.setattr(backends, "_default_backend", "numpy")
    for member in (1, 2):
        single = driver((member,))
        try:
            single.step(2)
            alone[member] = _state_digest(single.snapshot_member(member))
        finally:
            single.close()
    monkeypatch.setattr(backends, "_default_backend", "compiled")
    both = driver((1, 2))
    try:
        both.step(1)
        checks = plan.COUNTERS.snapshot()["arg_checks"]
        both.step(1)  # two swaps
        assert plan.COUNTERS.snapshot()["arg_checks"] == checks
        assert {m: _state_digest(both.snapshot_member(m))
                for m in (1, 2)} == alone
        # the first program of a step, on an array one of its kernels
        # takes from the caller
        engine = both.engine
        call, _ = engine.step_programs(engine.ranks[0])[0]
        call()
        binding = call.func._state.binding
        array = next(
            binding.arrays[arg] for unit in binding.plan.image.units
            for arg in unit.args if arg in binding.arrays
        )
        array.shape = array.shape[::-1]
        with pytest.raises(PlanBindError, match="does not match"):
            call()
        array.shape = array.shape[::-1]
        call()  # fits again
    finally:
        both.close()
