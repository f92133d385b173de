"""The packed form of a snapshot at rest (``PackedArray`` /
``PackedSnapshot``): lossless for every bit pattern, of every shape, and
of a real model state, which it packs at least to a measured floor."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore
from repro.resilience.checkpoint import (
    STATE_FIELDS,
    PackedArray,
    PackedSnapshot,
    Snapshot,
)
from repro.run import run
from repro.scenarios import get_scenario

#: bit patterns a float compressor is most likely to get wrong
SPECIAL_BITS = (
    0x0000000000000000,  # +0.0
    0x8000000000000000,  # -0.0
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # the quiet NaN
    0x7FF8DEADBEEF0001,  # a quiet NaN with a payload
    0xFFF0000000000001,  # a negative signalling NaN
    0x7FF0000000000001,  # a signalling NaN
    0x0000000000000001,  # the smallest subnormal
    0x000FFFFFFFFFFFFF,  # the largest subnormal
    0x800FFFFFFFFFFFFF,  # a negative subnormal
    0x0010000000000000,  # the smallest normal
    0x7FEFFFFFFFFFFFFF,  # the largest finite
)

bit_patterns = hnp.arrays(
    np.uint64,
    hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=9),
    elements=st.one_of(
        st.integers(0, 2 ** 64 - 1), st.sampled_from(SPECIAL_BITS)
    ),
)


ALL_ONES = 0xFFFFFFFFFFFFFFFF


def _alternating(shape, axis):
    """``0`` and all ones in turn along ``axis``: every Lorenzo residual
    wraps."""
    index = np.indices(shape)[axis]
    return np.where(index % 2 == 1, np.uint64(ALL_ONES), np.uint64(0))


def _sign_ramp(shape):
    """Consecutive bit patterns whose middle crosses the sign bit."""
    size = int(np.prod(shape))
    start = 0x8000000000000000 - size // 2
    return (np.arange(size, dtype=np.uint64) + np.uint64(start)).reshape(
        shape
    )


def _same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(bits=bit_patterns)
@example(bits=_alternating((9,), 0))
@example(bits=_alternating((4, 5, 6), 0))
@example(bits=_alternating((4, 5, 6), 1))
@example(bits=_alternating((4, 5, 6), 2))
@example(bits=_alternating((3, 2, 4, 5), 3))
@example(bits=_sign_ramp((16,)))
@example(bits=_sign_ramp((4, 4, 3)))
def test_every_bit_pattern_round_trips(bits):
    arr = bits.view(np.float64)
    packed = PackedArray.pack(arr)
    got = packed.unpack()
    _same_bits(got, arr)
    assert got.flags.c_contiguous
    assert packed.raw_nbytes == arr.nbytes


def test_special_values_round_trip():
    arr = np.array(SPECIAL_BITS, dtype=np.uint64).view(np.float64)
    _same_bits(PackedArray.pack(arr).unpack(), arr)


def test_non_contiguous_arrays_round_trip_as_their_c_order_copy():
    base = np.random.default_rng(0).normal(size=(6, 7, 5))
    for view in (base.T, base[::2, 1:, ::-1], np.asfortranarray(base)):
        assert not view.flags.c_contiguous
        got = PackedArray.pack(view).unpack()
        assert got.flags.c_contiguous
        _same_bits(got, np.ascontiguousarray(view))


def test_non_native_byte_order_and_other_widths_are_refused():
    swapped = np.arange(8.0).astype(np.dtype(np.float64).newbyteorder())
    with pytest.raises(ValueError, match="native-endian 8-byte"):
        PackedArray.pack(swapped)
    with pytest.raises(ValueError, match="native-endian 8-byte"):
        PackedArray.pack(np.arange(8, dtype=np.float32))


def test_packing_under_a_python_profiler():
    """A Python-level profile or trace function (a profiler, a debugger,
    coverage) holds every local of the frames it sees: packing must not
    depend on who else refers to its arrays."""
    arr = np.random.default_rng(1).normal(size=(5, 6, 7))
    sys.setprofile(lambda frame, event, arg: None)
    try:
        got = PackedArray.pack(arr).unpack()
    finally:
        sys.setprofile(None)
    _same_bits(got, arr)


@pytest.fixture(scope="module")
def core():
    """A c12 state after one step."""
    core = DynamicalCore(DynamicalCoreConfig(
        npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=1,
        n_tracers=2,
    ))
    core.step_dynamics()
    return core


def test_a_model_state_round_trips_and_packs_smaller(core):
    """A c12 state after one step: every array of every rank, halos
    included, comes back bit for bit, and the packed form is smaller."""
    snapshot = Snapshot.capture(core.states, core.time, core.step_count)
    packed = snapshot.pack()
    assert isinstance(packed, PackedSnapshot)
    assert (packed.time, packed.step) == (core.time, core.step_count)
    raw = sum(a.nbytes for fields in snapshot.arrays
              for a in fields.values())
    raw += sum(t.nbytes for ts in snapshot.tracers for t in ts)
    assert packed.raw_nbytes == raw
    assert packed.nbytes < 0.85 * raw
    arrays, tracers = packed.materialize()
    assert len(arrays) == len(tracers) == len(core.states)
    for state, fields, ts in zip(core.states, arrays, tracers):
        assert list(fields) == list(STATE_FIELDS)
        for name in STATE_FIELDS:
            _same_bits(fields[name], getattr(state, name))
            assert fields[name] is not getattr(state, name)
        assert len(ts) == len(state.tracers) == 2
        for got, want in zip(ts, state.tracers):
            _same_bits(got, want)


@pytest.fixture(scope="module")
def member_states():
    """A seeded baroclinic-wave member at c24·L10 after one step: the
    states the serving benchmark caches."""
    config = dataclasses.replace(
        get_scenario("baroclinic_wave").default_config(), npx=24, npz=10
    )
    result = run("baroclinic_wave", config, steps=1, members=(1,), seed=7)
    return result.member(1).states


def test_model_states_pack_to_a_measured_floor(core, member_states):
    """The packing ratio, held to floors set from measurement, so a
    fall-back towards raw storage fails here. The c12 state packs 2.39x
    (1.41x by the byte-plane split the predictive coding replaced); the
    c24·L10 member 1.68x (1.35x by the split, 1.53x without the Lorenzo
    prediction, 1.54x without the zigzag map)."""
    for states, floor in ((core.states, 2.2), (member_states, 1.6)):
        packed = Snapshot.capture(states, 0.0, 1).pack()
        assert packed.raw_nbytes / packed.nbytes >= floor
