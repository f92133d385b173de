"""Codegen equivalence tests: a stencil's lowered SDFG, printed as NumPy
(the ``numpy`` backend, and the emission every program runs under it),
must give what the definition says (:mod:`repro.dsl.oracle`)."""

import numpy as np
import pytest

from repro.dsl import (
    BACKWARD,
    FORWARD,
    PARALLEL,
    Field,
    FieldIJ,
    computation,
    horizontal,
    interval,
    j_start,
    region,
    stencil,
)
from repro.dsl.oracle import run_oracle


def _run_both(stencil_obj, arrays, scalars=None, origin=None, domain=None,
              bounds=None):
    """Run a stencil through the oracle and through its NumPy emission,
    return (oracle_result, emission_result)."""
    scalars = scalars or {}
    want = {k: v.copy() for k, v in arrays.items()}
    got = {k: v.copy() for k, v in arrays.items()}
    origin, domain = stencil_obj._resolve_domain(want, origin, domain)
    run_oracle(stencil_obj, want, scalars, origin=origin, domain=domain,
               bounds=bounds)
    stencil_obj(**got, **scalars, origin=origin, domain=domain,
                bounds=bounds, backend="numpy")
    return want, got


def _assert_equal(want, got):
    for name in want:
        np.testing.assert_array_equal(
            got[name], want[name], err_msg=f"mismatch in {name!r}"
        )


def _rand(shape, seed=0):
    return np.random.default_rng(seed).random(shape)


def test_copy_equivalence():
    @stencil
    def copy(a: Field, b: Field):
        with computation(PARALLEL), interval(...):
            b = a

    arrays = {"a": _rand((5, 4, 3)), "b": np.zeros((5, 4, 3))}
    _assert_equal(*_run_both(copy, arrays, origin=(0, 0, 0), domain=(5, 4, 3)))


def test_laplacian_equivalence():
    @stencil
    def lap(a: Field, out: Field, w: float):
        with computation(PARALLEL), interval(...):
            out = w * (a[-1, 0, 0] + a[1, 0, 0] + a[0, -1, 0] + a[0, 1, 0] - 4.0 * a)

    arrays = {"a": _rand((8, 8, 4)), "out": np.zeros((8, 8, 4))}
    _assert_equal(*_run_both(lap, arrays, scalars={"w": 0.25}))


def test_temporary_equivalence():
    @stencil
    def smooth(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            t = (a[-1, 0, 0] + a[1, 0, 0]) * 0.5
            out = (t[-1, 0, 0] + t[1, 0, 0]) * 0.5

    arrays = {"a": _rand((10, 6, 3)), "out": np.zeros((10, 6, 3))}
    _assert_equal(
        *_run_both(smooth, arrays, origin=(2, 2, 0), domain=(6, 2, 3))
    )


def test_vertical_solver_equivalence():
    @stencil
    def tridiag(a: Field, b: Field, c: Field, d: Field, x: Field):
        with computation(FORWARD):
            with interval(0, 1):
                w = c / b
                g = d / b
            with interval(1, None):
                w = c / (b - a * w[0, 0, -1])
                g = (d - a * g[0, 0, -1]) / (b - a * w[0, 0, -1])
        with computation(BACKWARD):
            with interval(-1, None):
                x = g
            with interval(0, -1):
                x = g - w * x[0, 0, 1]

    rng = np.random.default_rng(1)
    shape = (3, 3, 12)
    arrays = {
        "a": rng.random(shape),
        "b": 4.0 + rng.random(shape),
        "c": rng.random(shape),
        "d": rng.random(shape),
        "x": np.zeros(shape),
    }
    _assert_equal(*_run_both(tridiag, arrays, origin=(0, 0, 0), domain=shape))


def test_mask_equivalence():
    @stencil
    def limiter(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = a
            if a > 0.5:
                out = 0.5
            elif a < 0.2:
                out = a * 2.0

    arrays = {"a": _rand((6, 6, 4)), "out": np.zeros((6, 6, 4))}
    _assert_equal(*_run_both(limiter, arrays, origin=(0, 0, 0), domain=(6, 6, 4)))


def test_region_on_a_2d_target_is_predicated():
    """Regression: a region write to an IJ field inside a PARALLEL
    single-level interval used to lose its predicate (the 2D branch of
    the statement emitter re-resolved the ranges without the region) and
    overwrote the whole plane."""
    @stencil
    def edge2d(a: Field, out: FieldIJ):
        with computation(PARALLEL), interval(0, 1):
            out = a
            with horizontal(region[:, j_start]):
                out = a * 10.0

    arrays = {"a": _rand((5, 4, 3)), "out": np.zeros((5, 4))}
    _assert_equal(
        *_run_both(edge2d, arrays, origin=(0, 0, 0), domain=(5, 4, 3))
    )


def test_region_equivalence_both_strategies():
    def defn(v: Field, flux: Field, dt2: float):
        with computation(PARALLEL), interval(...):
            flux = dt2 * v * 0.5
            with horizontal(region[:, j_start]):
                flux = dt2 * v

    for predicated in (True, False):
        s = stencil(defn)
        # toggle the region strategy on the library-node schedule
        arrays = {"v": _rand((5, 5, 2)), "flux": np.zeros((5, 5, 2))}
        want = {k: v.copy() for k, v in arrays.items()}
        run_oracle(s, want, {"dt2": 2.0}, origin=(0, 0, 0), domain=(5, 5, 2))

        sdfg = s.build_sdfg(
            {k: v.shape for k, v in arrays.items()},
            {k: v.dtype.type for k, v in arrays.items()},
            (0, 0, 0),
            (5, 5, 2),
        )
        for kern in sdfg.all_kernels():
            kern.schedule.regions_as_predication = predicated
        from repro.sdfg.codegen import compile_sdfg

        prog = compile_sdfg(sdfg)
        a_df = {k: v.copy() for k, v in arrays.items()}
        prog(arrays=a_df, scalars={"dt2": 2.0})
        _assert_equal(want, a_df)


def test_mixed_axes_equivalence():
    @stencil
    def mixed(a: Field, m: FieldIJ, out: Field):
        with computation(PARALLEL), interval(...):
            out = a * m

    arrays = {
        "a": _rand((4, 4, 3)),
        "m": _rand((4, 4), seed=2),
        "out": np.zeros((4, 4, 3)),
    }
    _assert_equal(*_run_both(mixed, arrays, origin=(0, 0, 0), domain=(4, 4, 3)))


def test_compiled_program_is_cached():
    @stencil
    def copy(a: Field, b: Field):
        with computation(PARALLEL), interval(...):
            b = a

    a = _rand((4, 4, 2))
    b = np.zeros_like(a)
    copy(a, b, origin=(0, 0, 0), domain=(4, 4, 2), backend="compiled")
    assert len(copy._plans) == 1
    copy(a, b, origin=(0, 0, 0), domain=(4, 4, 2), backend="compiled")
    assert len(copy._plans) == 1
    copy(a, b, origin=(1, 1, 0), domain=(3, 3, 2), backend="compiled")
    assert len(copy._plans) == 2


@pytest.mark.traced
def test_instrumented_kernel_times():
    """One plan times its kernels exactly in the calls made while
    tracing is on, each call into its own buffer: it returns that call's
    (seconds, calls) per label, and ``None`` when tracing is off."""
    @stencil
    def copy(a: Field, b: Field):
        with computation(PARALLEL), interval(...):
            b = a

    from repro import obs
    from repro.sdfg.codegen import compile_sdfg

    a = _rand((32, 32, 8))
    sdfg = copy.build_sdfg(
        {"a": a.shape, "b": a.shape},
        {"a": np.float64, "b": np.float64},
        (0, 0, 0),
        (32, 32, 8),
    )
    prog = compile_sdfg(sdfg)
    arrays = {"a": a, "b": np.zeros_like(a)}
    for _ in range(2):  # a second call counts its own calls only
        times = prog(arrays=arrays)
        assert len(times) == 1
        (total, count), = times.values()
        assert count == 1 and total > 0.0
    obs.get_tracer().disable()
    assert prog(arrays=arrays) is None


# ---------------------------------------------------------------------------
# out=-scheduled emission (buffer-pooled runtime)
# ---------------------------------------------------------------------------


def test_k_field_read_in_forward_computation():
    """Regression: a K-only field read at a fixed level used to hit a dead
    broadcast branch in ``_ExprEmitter.access_2d``."""
    from repro.dsl import FieldK

    @stencil
    def kscale(a: Field, coef: FieldK, out: Field):
        with computation(FORWARD), interval(...):
            out = a * coef + out[0, 0, -1]

    arrays = {
        "a": _rand((5, 4, 4)),
        "coef": _rand((4,), seed=1) + 0.5,
        "out": np.zeros((5, 4, 4)),
    }
    _assert_equal(
        *_run_both(kscale, arrays, origin=(0, 0, 1), domain=(5, 4, 3))
    )


def test_k_field_generated_source_broadcasts():
    """The emitted K-axis access must be a (1, 1) view, not a 0-d scalar
    subscripted with np.newaxis (which would raise)."""
    from repro.dsl import FieldK
    from repro.sdfg.codegen import compile_sdfg

    @stencil
    def kcopy(a: Field, coef: FieldK, out: Field):
        with computation(FORWARD), interval(...):
            out = a * coef

    sdfg = kcopy.build_sdfg(
        {"a": (3, 3, 2), "coef": (2,), "out": (3, 3, 2)},
        {n: np.float64 for n in ("a", "coef", "out")},
        (0, 0, 0),
        (3, 3, 2),
    )
    prog = compile_sdfg(sdfg)
    assert "[np.newaxis, np.newaxis, __k" in prog.source


def test_repeated_calls_do_not_see_stale_scratch():
    """Pooled scratch is reused across calls; results must not depend on
    what a previous call left in the buffers (masked writes, read-before-
    write temporaries)."""
    @stencil
    def masked(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            if a > 0.5:
                t = a * 2.0
            out = t + a

    shape = (6, 5, 4)
    first = {"a": _rand(shape), "out": np.zeros(shape)}
    second = {"a": _rand(shape, seed=9), "out": np.zeros(shape)}
    # pollute the pool with a run of the same program on different data,
    # then verify the next run still matches the definition exactly
    poll = {k: v.copy() for k, v in first.items()}
    masked(**poll, origin=(0, 0, 0), domain=shape, backend="numpy")
    _assert_equal(
        *_run_both(masked, second, origin=(0, 0, 0), domain=shape)
    )


def test_compiled_program_reports_runtime_bytes():
    from repro.sdfg.codegen import compile_sdfg

    @stencil
    def axpy(a: Field, b: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = a * 2.0 + b

    shapes = {n: (8, 8, 4) for n in ("a", "b", "out")}
    sdfg = axpy.build_sdfg(
        shapes, {n: np.float64 for n in shapes}, (0, 0, 0), (8, 8, 4)
    )
    prog = compile_sdfg(sdfg)
    # at least one float64 full-domain scratch slot was planned
    assert prog.runtime_bytes >= 8 * 8 * 4 * 8


def test_missing_container_error_is_precomputed():
    from repro.sdfg.codegen import compile_sdfg

    @stencil
    def copy(a: Field, b: Field):
        with computation(PARALLEL), interval(...):
            b = a

    sdfg = copy.build_sdfg(
        {"a": (3, 3, 2), "b": (3, 3, 2)},
        {"a": np.float64, "b": np.float64},
        (0, 0, 0),
        (3, 3, 2),
    )
    prog = compile_sdfg(sdfg)
    with pytest.raises(ValueError, match="missing arrays for containers"):
        prog(arrays={"a": np.zeros((3, 3, 2))})


# ---------------------------------------------------------------------------
# transients: one arena slab per call, zero fill decided by coverage
# ---------------------------------------------------------------------------


def _two_computation_sdfg():
    """A stencil whose temporary crosses computations (an SDFG
    transient) and whose expressions need scratch slots."""
    @stencil
    def staged(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            t = a * 2.0 + 1.0
        with computation(FORWARD), interval(1, None):
            out = t[0, 0, -1] * 3.0 + a

    shape = (6, 5, 4)
    sdfg = staged.build_sdfg(
        {"a": shape, "out": shape}, {"a": np.float64, "out": np.float64},
        (0, 0, 0), shape,
    )
    return sdfg, shape


def test_failed_arena_batch_leaves_nothing_checked_out(monkeypatch):
    """Transients and scratch are one slab, taken inside the call's
    clean-up: a failing allocation strands nothing, and neither does a
    kernel that raises with the slab checked out."""
    from repro.runtime.pool import get_pool
    from repro.sdfg.codegen import compile_sdfg

    sdfg, shape = _two_computation_sdfg()
    prog = compile_sdfg(sdfg)
    assert len(prog.plan_offsets) >= 2 and sdfg.transients()
    pool = get_pool()
    pool.clear()  # the call's slab must be allocated
    before = pool.stats()

    def failing(shape, dtype):
        raise MemoryError("no slab for you")

    monkeypatch.setattr(pool, "_allocate", failing)
    arrays = {"a": _rand(shape), "out": np.zeros(shape)}
    with pytest.raises(MemoryError):
        prog(arrays=arrays)
    assert pool.stats() == before
    monkeypatch.undo()
    with pytest.raises(TypeError):
        prog(arrays={"a": None, "out": arrays["out"]})
    assert pool.stats()["live_bytes"] == before["live_bytes"]
    prog(arrays=arrays)  # and the program still runs
    assert pool.stats()["live_bytes"] == before["live_bytes"]
    np.testing.assert_array_equal(
        arrays["out"][:, :, 1:],
        (arrays["a"][:, :, :-1] * 2.0 + 1.0) * 3.0 + arrays["a"][:, :, 1:],
    )


def test_a_call_is_one_checkout_and_steady_state_builds_no_views():
    from repro.runtime.pool import get_pool
    from repro.sdfg.codegen import compile_sdfg

    sdfg, shape = _two_computation_sdfg()
    prog = compile_sdfg(sdfg)
    arrays = {"a": _rand(shape), "out": np.zeros(shape)}
    pool = get_pool()
    prog(arrays=arrays)
    expected = arrays["out"].copy()
    (slab,) = prog._bound  # the views of the one slab it has run in
    scratch, transients, addresses = prog._bound[slab]
    assert set(transients) == set(sdfg.transients())
    for offset, nbytes, view, address in zip(
        prog.plan_offsets, prog.plan_nbytes, scratch, addresses
    ):
        assert view.ctypes.data == slab.data.ctypes.data + offset == address
        assert view.nbytes == nbytes and offset % 64 == 0
        assert offset + nbytes <= prog.runtime_bytes <= slab.capacity
    before = pool.stats()
    for _ in range(3):
        prog(arrays=arrays)
    after = pool.stats()
    assert after["checkouts"] - before["checkouts"] == 3
    assert after["allocations"] == before["allocations"]
    assert prog._bound[slab][0] is scratch  # not rebuilt
    np.testing.assert_array_equal(arrays["out"], expected)
    # the arena retiring the slab drops the views with it
    del slab, scratch, transients, addresses
    pool.release(pool.checkout_slab(prog.runtime_bytes * 2 + 64))
    assert len(prog._bound) == 0
    prog(arrays=arrays)
    np.testing.assert_array_equal(arrays["out"], expected)


def _contactless(callback):
    """Declare that a callback touches no container (undeclared, it is a
    barrier that keeps every transient alive)."""
    callback.reads, callback.writes = [], []
    return callback


def _program_calling(inner, shape, hook=None):
    """An SDFG that runs ``_two_computation_sdfg``'s stencil, then a
    callback that calls the compiled ``inner`` (and ``hook``) while the
    outer program's slab is checked out."""
    from repro.sdfg.nodes import Callback

    outer, _ = _two_computation_sdfg()
    inner_arrays = {"a": _rand(shape), "out": np.zeros(shape)}

    def nested():
        inner(arrays=inner_arrays)
        if hook is not None:
            hook()

    outer.add_state("call_inner").add(_contactless(Callback("nested", nested)))
    return outer, inner_arrays


def test_nested_program_call_takes_a_second_slab():
    from repro.runtime import pool as pool_module
    from repro.runtime.pool import BufferPool
    from repro.sdfg.codegen import compile_sdfg

    sdfg, shape = _two_computation_sdfg()
    inner = compile_sdfg(sdfg)
    seen = {}
    pool = BufferPool()
    outer_sdfg, inner_arrays = _program_calling(
        inner, shape, hook=lambda: seen.update(pool.stats()),
    )
    outer = compile_sdfg(outer_sdfg)
    arrays = {"a": _rand(shape), "out": np.zeros(shape)}
    previous, pool_module._POOL = pool_module._POOL, pool
    try:
        for _ in range(2):
            outer(arrays=arrays)
    finally:
        pool_module._POOL = previous
    # inside the callback the outer slab was live and the inner one idle
    assert seen["live_bytes"] == outer.runtime_bytes
    assert seen["idle_bytes"] == inner.runtime_bytes
    stats = pool.stats()
    assert stats["peak_slabs"] == stats["allocations"] == 2
    assert stats["checkouts"] == 4 and stats["live_bytes"] == 0
    for got in (arrays, inner_arrays):
        np.testing.assert_array_equal(
            got["out"][:, :, 1:],
            (got["a"][:, :, :-1] * 2.0 + 1.0) * 3.0 + got["a"][:, :, 1:],
        )


def test_two_threads_in_one_program_never_share_a_live_slab():
    """Two rank threads bound to one compiled template meet inside it:
    each has its own slab and its own views."""
    import threading

    from repro.runtime.pool import get_pool
    from repro.sdfg.codegen import compile_sdfg
    from repro.sdfg.nodes import Callback

    sdfg, shape = _two_computation_sdfg()
    meet = threading.Barrier(2)
    live = []

    def rendezvous():
        meet.wait(timeout=30)
        live.append(get_pool().stats()["live_bytes"])
        meet.wait(timeout=30)

    sdfg.add_state("meet").add(_contactless(Callback("meet", rendezvous)))
    prog = compile_sdfg(sdfg)
    base = get_pool().stats()["live_bytes"]
    inputs = [{"a": _rand(shape), "out": np.zeros(shape)} for _ in range(2)]
    errors = []

    def rank(arrays):
        try:
            for _ in range(5):
                prog(arrays=arrays)
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    workers = [threading.Thread(target=rank, args=(a,)) for a in inputs]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert not any(w.is_alive() for w in workers) and errors == []
    slabs = list(prog._bound)
    assert len(slabs) == 2
    assert not np.shares_memory(slabs[0].data, slabs[1].data)
    assert all(seen - base >= 2 * prog.runtime_bytes for seen in live)
    for arrays in inputs:
        np.testing.assert_array_equal(
            arrays["out"][:, :, 1:],
            (arrays["a"][:, :, :-1] * 2.0 + 1.0) * 3.0
            + arrays["a"][:, :, 1:],
        )


def test_caller_provided_transient_storage_is_used():
    from repro.sdfg.codegen import compile_sdfg

    sdfg, shape = _two_computation_sdfg()
    prog = compile_sdfg(sdfg)
    (name,) = sdfg.transients()
    mine = np.full(sdfg.arrays[name].shape, np.nan)
    a = _rand(shape)
    prog(arrays={"a": a, "out": np.zeros(shape), name: mine})
    # the buffer starts one level above the domain (the k-1 read's
    # extent); that level is neither written nor read
    np.testing.assert_array_equal(mine[:, :, 1:], a * 2.0 + 1.0)
    assert np.isnan(mine[:, :, 0]).all()


def test_transient_written_across_intervals_needs_no_fill():
    """The first touch of the transient writes it interval by interval —
    not one covering statement — but every read is covered, so the
    program uses the pooled buffer as it comes."""
    from repro.sdfg.codegen import compile_sdfg

    @stencil
    def cumulative(a: Field, out: Field):
        with computation(FORWARD):
            with interval(0, 1):
                acc = a
            with interval(1, None):
                acc = acc[0, 0, -1] + a
        with computation(PARALLEL), interval(...):
            out = acc * 0.5

    shape = (5, 4, 6)
    sdfg = cumulative.build_sdfg(
        {"a": shape, "out": shape}, {"a": np.float64, "out": np.float64},
        (0, 0, 0), shape,
    )
    assert len(sdfg.transients()) == 1
    assert ".fill(0)" not in compile_sdfg(sdfg).source
    arrays = {"a": _rand(shape), "out": np.zeros(shape)}
    _assert_equal(*_run_both(cumulative, arrays, origin=(0, 0, 0),
                             domain=shape))
