"""Trace once, bind per instance: the differential oracle and the cases
that must *not* share a template.

A bound program is only as good as the guards that admitted it, so the
oracle is a fresh trace: for every orchestrated program of every rank the
SDFG a binding runs must hash like the SDFG ``build()`` produces for that
same instance and arguments, carry the same scalars, and resolve every
container to the very same array object.
"""

import dataclasses

import numpy as np
import pytest

from repro.dsl import (
    Field, PARALLEL, computation, horizontal, i_start, interval, region,
    stencil,
)
from repro.dsl.backend_numpy import GridBounds
from repro.fv3.config import DynamicalCoreConfig
from repro.orchestration import OrchestratedProgram, orchestrate
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan
from repro.resilience.errors import InjectedCompileError
from repro.run import build_core, run
from repro.runtime import compile_cache as cc
from repro.runtime import jit
from repro.scenarios import available_scenarios

SHAPE = (6, 6, 4)


@pytest.fixture(autouse=True)
def _fresh_store():
    cc.reset(clear=True)
    yield
    cc.reset(clear=True)


def _small(**changes) -> DynamicalCoreConfig:
    base = DynamicalCoreConfig(npx=12, npz=4, k_split=1, n_split=1)
    return dataclasses.replace(base, **changes)


def _programs(core):
    """Every program instance of every rank that has been called."""
    ac = core.acoustics
    modules = (ac.c_sw + ac.d_sw + ac.riemann + ac.transports + ac.work
               + core.remap + core.tracer_adv)
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("_orchestrated_") and value._bindings:
                yield value


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layout", [1, 2])
@pytest.mark.parametrize("scenario", available_scenarios())
def test_every_binding_equals_a_fresh_trace(scenario, layout):
    core = build_core(scenario, _small(layout=layout), executor="sequential")
    core.step_dynamics()
    stats = cc.stats()
    ranks = core.partitioner.total_ranks
    # sharing really happened: one trace per program and variant, the
    # other ranks bound
    assert stats["program_traces"] == stats["templates"] <= 8 * layout**2
    assert stats["program_traces"] + stats["program_binds"] == 8 * ranks
    checked = 0
    for program in _programs(core):
        for binding in program._bindings.values():
            args, kwargs = binding.held
            fresh = OrchestratedProgram(
                program.func, program.instance, program.optimize
            )
            sdfg = fresh.build(*args, **kwargs)
            assert cc.cache_key(binding.template.sdfg) == cc.cache_key(sdfg)
            assert binding.template.sdfg.scalars == sdfg.scalars
            assert binding.template.runtime_scalars == \
                fresh._binding.template.runtime_scalars
            arrays = fresh._binding.arrays
            assert binding.arrays.keys() == arrays.keys()
            for name, array in arrays.items():
                assert binding.arrays[name] is array, (program.name, name)
            checked += 1
    assert checked == 8 * ranks


# ---------------------------------------------------------------------------
# configurations that must force another template
# ---------------------------------------------------------------------------


def _step_counts(config):
    """(traces, binds) of one step of a new core on top of whatever
    templates earlier cores published."""
    before = cc.stats()
    core = build_core("baroclinic_wave", config, executor="sequential")
    core.step_dynamics()
    after = cc.stats()
    return (after["program_traces"] - before["program_traces"],
            after["program_binds"] - before["program_binds"])


def test_equal_configuration_binds_everything():
    assert _step_counts(_small()) == (8, 40)
    assert _step_counts(_small()) == (0, 48)


def test_folded_constant_retraces_only_its_readers():
    _step_counts(_small())
    # only DGridSolver.damp_fields folds config.d2_damp
    assert _step_counts(_small(d2_damp=0.05)) == (1, 47)
    assert cc.stats()["templates"] == 9


def test_different_npz_shares_nothing():
    _step_counts(_small())
    assert _step_counts(_small(npz=5)) == (8, 40)
    assert cc.stats()["templates"] == 16


@stencil
def _scale(a: Field, out: Field, factor: float):
    with computation(PARALLEL), interval(...):
        out = a * factor


@stencil
def _add(a: Field, b: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = a + b


@stencil
def _edge(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = a
        with horizontal(region[i_start, :]):
            out = a + 100.0


def _record_corners(q, corners, seen):
    seen.append(corners)
    q += len(corners)


def _mark(q, corners):
    q += len(corners)


class Box:
    """A module whose every traced assumption can be varied."""

    def __init__(self, shape=SHAPE, dtype=np.float64, corners=("sw",),
                 bounds=None, gain=2.0):
        self.shape = shape
        self.tmp = np.zeros(shape, dtype=dtype)
        self.corners = tuple(corners)
        self.bounds = bounds
        self.gain = gain

    @orchestrate
    def combine(self, q: np.ndarray, out: np.ndarray):
        _scale(q, self.tmp, self.gain, origin=(0, 0, 0), domain=self.shape)
        _add(q, self.tmp, out, origin=(0, 0, 0), domain=self.shape)

    @orchestrate
    def fill(self, q: np.ndarray):
        _mark(q, self.corners)

    @orchestrate
    def edged(self, q: np.ndarray, out: np.ndarray):
        _edge(q, out, origin=(0, 0, 0), domain=self.shape,
              bounds=self.bounds)


def _templates() -> int:
    return cc.stats()["templates"]


def _combine(box, dtype=np.float64, alias=False):
    q = np.arange(np.prod(box.shape), dtype=dtype).reshape(box.shape)
    out = q if alias else np.zeros(box.shape, dtype=dtype)
    expected = q + dtype(box.gain) * q
    box.combine(q, out)
    np.testing.assert_array_equal(out, expected)


def test_second_instance_binds_and_gets_its_own_arrays():
    _combine(Box())
    _combine(Box())
    stats = cc.stats()
    assert (stats["program_traces"], stats["program_binds"]) == (1, 1)
    assert stats["templates"] == 1


def test_folded_scalar_value_is_guarded():
    _combine(Box(gain=2.0))
    _combine(Box(gain=3.0))  # asserts the result used 3.0, not 2.0
    assert _templates() == 2


def test_different_shape_is_another_template():
    _combine(Box())
    _combine(Box(shape=(8, 6, 4)))
    assert _templates() == 2


def test_different_dtype_is_another_template():
    _combine(Box())
    _combine(Box(dtype=np.float32), dtype=np.float32)
    assert _templates() == 2


def test_alias_pattern_is_another_template():
    _combine(Box())
    _combine(Box(), alias=True)  # q and out are one array: one container
    assert _templates() == 2
    _combine(Box())  # two arrays again: binds to the first template
    assert _templates() == 2
    assert cc.stats()["program_binds"] == 1


def test_corner_list_is_guarded_by_value():
    for corners, templates in ((("sw",), 1), (("sw",), 1),
                               (("sw", "ne"), 2)):
        q = np.zeros(SHAPE)
        Box(corners=corners).fill(q)
        assert q[0, 0, 0] == len(corners)
        assert _templates() == templates


def test_grid_bounds_are_guarded_by_value():
    interior = GridBounds(origin=(6, 0), tile_shape=(12, 12))
    west = GridBounds(origin=(0, 0), tile_shape=(12, 12))
    for bounds, templates, first_row in ((interior, 1, 1.0), (west, 2, 101.0),
                                         (GridBounds((0, 0), (12, 12)), 2,
                                          101.0)):
        q, out = np.ones(SHAPE), np.zeros(SHAPE)
        Box(bounds=bounds).edged(q, out)
        assert out[0, 0, 0] == first_row and out[1, 0, 0] == 1.0
        assert _templates() == templates


def test_int_argument_is_part_of_the_binding_key():
    class Repeat:
        def __init__(self):
            self.acc = np.zeros(SHAPE)

        @orchestrate
        def run(self, q: np.ndarray, n: int):
            for _ in range(n):
                _add(self.acc, q, self.acc, origin=(0, 0, 0), domain=SHAPE)

    rep, q = Repeat(), np.ones(SHAPE)
    rep.run(q, 2)
    rep.run(q, 3)  # the parent reused the n=2 build here
    np.testing.assert_array_equal(rep.acc, 5.0)


# ---------------------------------------------------------------------------
# what stays per instance
# ---------------------------------------------------------------------------


class Logger:
    """Passes a list — no by-value identity — to its callback."""

    def __init__(self):
        self.seen = []

    @orchestrate
    def fill(self, q: np.ndarray):
        _record_corners(q, ("sw",), self.seen)


def test_opaque_callback_argument_is_never_shared():
    first, second = Logger(), Logger()
    for logger in (first, second):
        logger.fill(np.zeros(SHAPE))
    # each instance's callback got that instance's list
    assert first.seen == [("sw",)] and second.seen == [("sw",)]
    stats = cc.stats()
    assert stats["program_traces"] == 2 and stats["templates"] == 0
    # and the compiled programs differ: the list is keyed by identity
    assert stats["misses"] == 2


def test_cache_disabled_retraces_every_instance(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
    _combine(Box())
    _combine(Box())
    stats = cc.stats()
    assert stats["program_traces"] == 2
    assert stats["program_binds"] == 0 and stats["templates"] == 0


def test_template_store_is_bounded(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILE_CACHE_SIZE", "2")
    for gain in (1.0, 2.0, 3.0, 4.0):
        _combine(Box(gain=gain))
    assert _templates() == 2


def test_failed_compile_publishes_nothing():
    previous = chaos.set_plan(ChaosPlan.from_spec("compile.fail@1"))
    try:
        with pytest.raises(InjectedCompileError):
            _combine(Box())
        assert _templates() == 0
        _combine(Box())  # the injection was one-shot: retraces cleanly
    finally:
        chaos.set_plan(previous)
    stats = cc.stats()
    assert stats["program_traces"] == 2 and stats["templates"] == 1


def test_rank_threads_trace_each_program_once():
    config = _small()
    threaded = run("baroclinic_wave", config, steps=1, executor="threads",
                   check=False)
    stats = cc.stats()
    assert stats["program_traces"] == stats["templates"] == 8
    assert stats["program_binds"] == 40
    assert all(len(f.templates) == 1 for f in cc._FAMILIES.values())
    cc.reset(clear=True)
    sequential = run("baroclinic_wave", config, steps=1,
                     executor="sequential", check=False)
    for a, b in zip(threaded.members[0].states, sequential.members[0].states):
        for name in ("u", "v", "w", "pt", "delp", "delz"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_bind_then_call_traces_once_and_computes_what_a_call_computes():
    """``bind`` is the first half of a call — match or trace, lower, ask
    for kernels — and runs nothing; the call that follows finds the
    binding made."""
    box, q, out = Box(), np.arange(144.0).reshape(SHAPE), np.zeros(SHAPE)
    box.combine.bind(q, out)
    assert (cc.stats()["program_traces"], cc.stats()["program_binds"]) \
        == (1, 0)
    assert not out.any() and not box.tmp.any()
    box.combine(q, out)
    assert (cc.stats()["program_traces"], cc.stats()["program_binds"]) \
        == (1, 0)
    # what a program that was only ever called computes
    cc.reset(clear=True)
    direct = np.zeros(SHAPE)
    Box().combine(q, direct)
    assert out.tobytes() == direct.tobytes() and out.any()


def test_a_program_follows_the_default_backend_until_compile_pins_one(
    monkeypatch
):
    """A binding is re-planned when the DSL's default backend has changed
    since it was made (what ``ForecastService`` switches per attempt);
    both plans stay on the template, nothing is traced again, and a
    backend given to ``compile`` holds whatever the default becomes."""
    from repro.dsl import backends
    from repro.runtime import jit
    from repro.sdfg.codegen_compiled import CompiledPlan

    if not jit.available():
        pytest.skip("no JIT engine: compiled degrades to NumPy emission")
    box, q, out = Box(), np.arange(144.0).reshape(SHAPE), np.zeros(SHAPE)
    results = {}
    for backend in ("numpy", "compiled", "numpy", "dataflow"):
        monkeypatch.setattr(backends, "_default_backend", backend)
        out[:] = 0.0
        box.combine(q, out)
        (binding,) = box.combine._bindings.values()
        assert isinstance(binding.plan, CompiledPlan) \
            == (backend == "compiled")
        plan, answer = results.setdefault(
            backend, (binding.plan, out.tobytes())
        )
        assert plan is binding.plan
        assert out.tobytes() == answer == results["numpy"][1]
    assert (cc.stats()["program_traces"], cc.stats()["program_binds"]) \
        == (1, 0)
    box.combine.compile(backend="compiled")
    box.combine(q, out)
    assert isinstance(binding.plan, CompiledPlan)


def test_counters_merge_and_reset():
    _combine(Box())
    _combine(Box())
    cc.COUNTERS.merge({"program_traces": 3, "program_binds": 5})
    stats = cc.stats()
    assert (stats["program_traces"], stats["program_binds"]) == (4, 6)
    assert stats["templates"] == 1  # other processes' templates are theirs
    cc.reset(clear=False)
    stats = cc.stats()
    assert (stats["program_traces"], stats["program_binds"]) == (0, 0)
    assert stats["templates"] == 1
    cc.reset(clear=True)
    assert cc.stats()["templates"] == 0


# ---------------------------------------------------------------------------
# templates that survive the process (the family's record on disk)
# ---------------------------------------------------------------------------


def _as_a_new_process():
    """Forget everything in memory; the records on disk stay."""
    cc.reset(clear=True)


def _record_counts():
    stats = cc.stats()
    return {
        name[len("programs_"):]: stats[name]
        for name in ("programs_restored", "programs_stored",
                     "programs_stale", "programs_unpersistable")
    }


def test_a_restored_template_binds_like_a_traced_one():
    _combine(Box())
    assert _record_counts() == dict(restored=0, stored=1, stale=0,
                                    unpersistable=0)
    _as_a_new_process()
    _combine(Box())  # asserts the result
    _combine(Box())
    stats = cc.stats()
    # the instance that used to trace binds like the rest, to a template
    # and a plan that came from their records
    assert (stats["program_traces"], stats["program_binds"]) == (0, 2)
    assert (stats["hits"], stats["misses"]) == (1, 0)
    assert _record_counts() == dict(restored=1, stored=0, stale=0,
                                    unpersistable=0)
    assert stats["restore_bytes"] > 0


def test_a_guard_mismatch_appends_a_template_and_both_restore():
    _combine(Box(gain=2.0))
    _as_a_new_process()
    _combine(Box(gain=3.0))  # restores gain=2.0's, which does not fit
    assert _record_counts() == dict(restored=1, stored=1, stale=0,
                                    unpersistable=0)
    assert cc.stats()["program_traces"] == 1 and _templates() == 2
    _as_a_new_process()
    for gain in (3.0, 2.0):
        _combine(Box(gain=gain))  # asserts each used its own gain
    assert cc.stats()["program_traces"] == 0
    assert _record_counts() == dict(restored=2, stored=0, stale=0,
                                    unpersistable=0)


def test_a_callback_is_restored_by_reference():
    """``_mark`` is a module-level function: the record names it, and the
    restored program calls the very function this process imported."""
    for restored in (0, 1):
        q = np.zeros(SHAPE)
        Box(corners=("sw", "ne")).fill(q)
        assert q[0, 0, 0] == 2
        stats = cc.stats()
        assert (stats["program_traces"], stats["programs_restored"]) \
            == (1 - restored, restored)
        _as_a_new_process()


def _amplify(q, gain, times, offset):
    q *= gain * times
    assert offset is None


class Amplifier:
    """Hands its callback NumPy scalars: constants kept by value in the
    SDFG, which NumPy pickles through a function, not a class."""

    gain = np.float64(2.5)
    times = np.int64(3)
    offset = None  # (guarded by type: ``NoneType`` has no importable name)

    @orchestrate
    def run(self, q: np.ndarray):
        _amplify(q, self.gain, self.times, self.offset)


def test_numpy_scalar_constants_of_a_callback_survive_the_record():
    for restored in (0, 1):
        q = np.ones(SHAPE)
        Amplifier().run(q)
        assert q[0, 0, 0] == 7.5
        assert _record_counts() == dict(
            restored=restored, stored=1 - restored, stale=0, unpersistable=0
        )
        assert jit.stats()["cache_repairs"] == 0
        _as_a_new_process()


def test_copying_an_sdfg_keeps_its_callbacks_callable():
    import copy
    import pickle

    from repro.sdfg.nodes import Callback

    box = Box()
    box.fill(np.zeros(SHAPE))
    sdfg = box.fill.sdfg
    for clone in (copy.deepcopy(sdfg), pickle.loads(pickle.dumps(sdfg))):
        functions = [node.func for node in clone.all_nodes()
                     if isinstance(node, Callback)]
        assert functions == [_mark]


def _cell_program():
    """A program whose source ``inspect`` finds and ``open`` does not,
    like a notebook cell's: registered in ``linecache`` under a file
    name that is no file."""
    import linecache
    import sys
    import types

    source = (
        "import numpy as np\n"
        "from repro.orchestration import orchestrate\n"
        "from tests.orchestration.test_templates import SHAPE, _add\n"
        "class Cell:\n"
        "    def __init__(self):\n"
        "        self.one = np.ones(SHAPE)\n"
        "    @orchestrate\n"
        "    def run(self, q: np.ndarray, out: np.ndarray):\n"
        "        _add(q, self.one, out, origin=(0, 0, 0), domain=SHAPE)\n"
    )
    name = "<cell-of-test-templates>"
    linecache.cache[name] = (len(source), None,
                             source.splitlines(keepends=True), name)
    module = sys.modules.setdefault("_repro_cell", types.ModuleType(
        "_repro_cell"
    ))
    if not hasattr(module, "Cell"):
        exec(compile(source, name, "exec"), module.__dict__)
    return module.Cell()


def _local_program():
    @stencil
    def double(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = a * 2.0

    class Doubler:
        @orchestrate
        def run(self, q: np.ndarray, out: np.ndarray):
            double(q, out, origin=(0, 0, 0), domain=SHAPE)

    return Doubler()


class LambdaCaller:
    hook = staticmethod(lambda q: q.__iadd__(1.0))

    @orchestrate
    def run(self, q: np.ndarray):
        self.hook(q)


def _closure_program():
    gain = np.full(SHAPE, 3.0)

    @orchestrate
    def scaled(q: np.ndarray, out: np.ndarray):
        _add(q, gain, out, origin=(0, 0, 0), domain=SHAPE)

    return scaled


@pytest.mark.parametrize("case", ["local stencil", "lambda callback",
                                  "closure", "unreadable source"])
def test_what_no_other_process_could_find_stays_in_memory(case, tmp_path):
    """A stencil made inside a function, a lambda callback, a closure
    program, a program whose source file cannot be hashed (an edit to it
    would go unnoticed): each works, each is counted, none leaves a
    record."""
    import os

    q, out = np.ones(SHAPE), np.zeros(SHAPE)
    for _ in range(2):
        if case == "local stencil":
            _local_program().run(q, out)
            assert out[0, 0, 0] == 2.0
        elif case == "lambda callback":
            q[:] = 1.0
            LambdaCaller().run(q)
            assert q[0, 0, 0] == 2.0
        elif case == "unreadable source":
            _cell_program().run(q, out)
            assert out[0, 0, 0] == 2.0
        else:
            _closure_program()(q, out)
            assert out[0, 0, 0] == 4.0
    counts = _record_counts()
    assert counts["stored"] == counts["restored"] == 0
    assert counts["unpersistable"] >= 1
    records = cc.RECORDS_DIR
    assert not os.path.isdir(records) or not [
        name for name in os.listdir(records) if name.startswith("repro_t_")
    ]


def _restored_core(scenario, config):
    """A core whose programs all came from the records an identical core
    left, and the compile-cache counters of preparing it."""
    first = build_core(scenario, config, executor="sequential")
    first.prepare()
    _as_a_new_process()
    core = build_core(scenario, config, executor="sequential")
    core.prepare()
    return core, cc.stats()


def _oracle_cases():
    for scenario in available_scenarios():
        for layout in (1, 2):
            marks = () if scenario == "baroclinic_wave" else pytest.mark.deep
            yield pytest.param(scenario, layout, marks=marks)


@pytest.mark.parametrize("scenario, layout", _oracle_cases())
def test_every_restored_binding_equals_a_fresh_trace(scenario, layout,
                                                     monkeypatch):
    """The oracle again, for programs that were *restored*: per program
    of every rank the same content key, scalars and container → array
    mapping as a fresh trace of that instance, and the plan materialised
    from the stored image has the driver source, the kernel keys and the
    slab layout of one generated from that fresh trace."""
    from repro.dsl import backends
    from repro.runtime import jit

    backend = "compiled" if jit.available() else "numpy"
    monkeypatch.setattr(backends, "_default_backend", backend)
    core, stats = _restored_core(scenario, _small(layout=layout))
    ranks = core.partitioner.total_ranks
    assert stats["program_traces"] == 0 and stats["misses"] == 0
    assert stats["program_binds"] == 8 * ranks
    assert stats["programs_restored"] == stats["templates"] \
        == stats["hits"] <= 8 * layout**2
    checked = 0
    for program in _programs(core):
        for binding in program._bindings.values():
            args, kwargs = binding.held
            fresh = OrchestratedProgram(
                program.func, program.instance, program.optimize
            )
            sdfg = fresh.build(*args, **kwargs)
            restored = binding.template.sdfg
            key = cc.cache_key(sdfg, binding.plan.instrument, backend)
            assert cc.cache_key(
                restored, binding.plan.instrument, backend
            ) == key
            assert restored.scalars == sdfg.scalars
            assert binding.template.runtime_scalars == \
                fresh._binding.template.runtime_scalars
            arrays = fresh._binding.arrays
            assert binding.arrays.keys() == arrays.keys()
            for name, array in arrays.items():
                assert binding.arrays[name] is array, (program.name, name)
            plan = fresh.compile(
                instrument=binding.plan.instrument, backend=backend
            )
            # (content-equal, so the cache hands back the restored plan:
            # generate one from the fresh trace itself)
            assert plan is binding.plan
            generated = cc._half(cc._GENERATE, backend)(
                sdfg, plan.instrument
            )
            assert generated.source == plan.image.source
            assert generated.offsets == plan.plan_offsets
            assert generated.runtime_bytes == plan.runtime_bytes
            assert [u.text for u in generated.units] \
                == [u.text for u in plan.image.units]
            if backend == "compiled" and plan.engine == "cgen":
                again = type(plan)(sdfg, generated)
                assert [f.key for f in again.kernel_functions] \
                    == [f.key for f in plan.kernel_functions]
            checked += 1
    assert checked == 8 * ranks


def test_a_changed_constant_restores_beside_the_first_template():
    """``d2_damp`` is folded into ``DGridSolver.damp_fields`` alone: on a
    2x2 layout the second configuration traces only that program's
    variants, which join the family's record — and a later process
    restores both configurations without tracing."""
    base, other = _small(layout=2), _small(layout=2, d2_damp=0.05)
    for config in (base, other):
        build_core("baroclinic_wave", config,
                   executor="sequential").prepare()
    traced, templates = cc.stats()["program_traces"], _templates()
    assert cc.stats()["programs_stored"] == traced == templates
    _as_a_new_process()
    for config in (other, base):
        build_core("baroclinic_wave", config,
                   executor="sequential").prepare()
    stats = cc.stats()
    assert stats["program_traces"] == 0 and stats["misses"] == 0
    assert stats["programs_restored"] == _templates() == templates
