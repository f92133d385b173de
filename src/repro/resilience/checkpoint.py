"""Checkpoint/restart: bit-exact snapshots of the dynamical-core state.

Two mechanisms, same contents (every prognostic array of every rank,
the model time and the step counter; the model carries no RNG state):

- :class:`Snapshot` — an in-memory copy used by the rollback/retry loop.
  Capture and restore are plain ``np.copyto`` round-trips, so a restored
  state is bit-identical to the captured one.
- :class:`PackedSnapshot` — a snapshot at rest (the serving layer's
  state cache), each array coded by prediction: its values' bit
  patterns as 64-bit integers, each less the Lorenzo prediction from
  its lower neighbours (the wrapping difference along every axis in
  turn), zigzag-mapped so that a small negative residual keeps its high
  bytes zero, and split into eight byte planes. Each plane is
  ``zlib``-compressed at level 1 on its own, most significant first,
  until one does not shrink; that one and the planes below it are kept
  raw. Unpacking inverts each step, the cumulative sums wrapping mod
  2**64, so every bit round-trips whatever the data: NaN payloads,
  ``-0.0``, infinities and subnormals included. A c24·L10 state packs
  1.58–1.70x. Both forms give fresh per-rank arrays through one
  ``materialize()``.
- :func:`save_checkpoint` / :func:`load_checkpoint` — a versioned
  on-disk ``.npz`` snapshot for restart across processes. The format is
  flat: a ``__meta__`` JSON header (format version, time, step, rank
  count, tracer count) plus ``r{rank}_{field}`` / ``r{rank}_tracer{t}``
  arrays. Loading validates the format version and the array shapes
  against the receiving model before touching any state, so a failed
  restore never leaves a half-written model.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys
import zipfile
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.resilience.errors import CheckpointCorruptError, CheckpointError

__all__ = [
    "CHECKPOINT_VERSION",
    "PackedArray",
    "PackedSnapshot",
    "Snapshot",
    "checkpoint_meta",
    "load_checkpoint",
    "save_checkpoint",
]

CHECKPOINT_VERSION = 1

#: per-rank prognostic arrays, in serialization order
STATE_FIELDS = ("u", "v", "w", "pt", "delp", "delz")

#: per-rank arrays as a snapshot holds them: fields by name, tracers
Ranks = Tuple[List[Dict[str, object]], List[List[object]]]


def _map_ranks(fn: Callable, arrays, tracers) -> Ranks:
    """``fn`` applied to every array of every rank, structure kept."""
    return (
        [{name: fn(a) for name, a in fields.items()} for fields in arrays],
        [[fn(t) for t in ts] for ts in tracers],
    )


@dataclasses.dataclass
class Snapshot:
    """In-memory bit-exact copy of all rank states."""

    arrays: List[Dict[str, np.ndarray]]
    tracers: List[List[np.ndarray]]
    time: float
    step: int

    @classmethod
    def capture(cls, states: Sequence, time: float, step: int) -> "Snapshot":
        return cls(
            arrays=[
                {f: getattr(s, f).copy() for f in STATE_FIELDS}
                for s in states
            ],
            tracers=[[t.copy() for t in s.tracers] for s in states],
            time=time,
            step=step,
        )

    @classmethod
    def adopt(cls, states: Sequence, time: float, step: int) -> "Snapshot":
        """A snapshot over ``states``' own arrays, not a copy, for a
        caller that gives them up (a removed ensemble member's)."""
        return cls(
            arrays=[{f: getattr(s, f) for f in STATE_FIELDS} for s in states],
            tracers=[list(s.tracers) for s in states],
            time=time,
            step=step,
        )

    def recapture(self, states: Sequence, time: float, step: int) -> None:
        """Capture ``states`` again, into this snapshot's own arrays (a
        snapshot taken before every step allocates once)."""
        for state, fields, tracers in zip(states, self.arrays, self.tracers):
            for name, arr in fields.items():
                np.copyto(arr, getattr(state, name))
            for dst, src in zip(tracers, state.tracers):
                np.copyto(dst, src)
        self.time = time
        self.step = step

    def restore(self, states: Sequence) -> None:
        """Copy the captured contents back into ``states`` in place."""
        if len(states) != len(self.arrays):
            raise CheckpointError(
                f"snapshot holds {len(self.arrays)} ranks, "
                f"model has {len(states)}"
            )
        for state, fields, tracers in zip(states, self.arrays, self.tracers):
            for name, arr in fields.items():
                np.copyto(getattr(state, name), arr)
            for dst, src in zip(state.tracers, tracers):
                np.copyto(dst, src)

    def materialize(self) -> Ranks:
        """Fresh copies of the captured arrays, ``(fields, tracers)``
        per rank: a new member's own storage."""
        return _map_ranks(np.copy, self.arrays, self.tracers)

    def pack(self) -> "PackedSnapshot":
        """This snapshot at rest (see :class:`PackedSnapshot`)."""
        return PackedSnapshot(
            *_map_ranks(PackedArray.pack, self.arrays, self.tracers),
            time=self.time, step=self.step,
        )


# ---------------------------------------------------------------------------
# packed form: a snapshot at rest
# ---------------------------------------------------------------------------

#: a native 8-byte value's bytes, least significant first
_LEAST_FIRST = (
    slice(None) if sys.byteorder == "little" else slice(None, None, -1)
)


@dataclasses.dataclass(frozen=True)
class PackedArray:
    """One array at rest, lossless: its 8-byte values' bit patterns as
    Lorenzo residuals, zigzag-mapped, in eight byte planes. The planes
    are compressed one at a time, most significant first, with ``zlib``
    at level 1 (``packed``, most significant first); the first that
    does not shrink ends the trials, and it and the planes below it,
    noisier still, are kept raw (``raw``, one row a plane, least
    significant first).

    Any array of a native-endian 8-byte dtype packs; one that is not
    C-contiguous packs its C-order copy and unpacks C-contiguous. A
    non-native byte order is refused (its significant bytes sit at the
    other end)."""

    shape: Tuple[int, ...]
    dtype: np.dtype
    raw: np.ndarray
    packed: Tuple[bytes, ...]

    @classmethod
    def pack(cls, arr: np.ndarray) -> "PackedArray":
        if arr.dtype.itemsize != 8 or not arr.dtype.isnative:
            raise ValueError(
                f"packs native-endian 8-byte arrays, not {arr.dtype.str}"
            )
        # a C-order copy to code in place
        bits = np.array(arr, order="C").view(np.uint64)
        # the Lorenzo residual: each value less the prediction from its
        # lower neighbours, the wrapping difference along every axis
        for axis in range(bits.ndim):
            run = np.moveaxis(bits, axis, 0)
            np.subtract(run[1:], run[:-1], out=run[1:])
        # zigzag: a small negative residual keeps its high bytes zero
        flat = bits.reshape(-1)
        sign = flat.view(np.int64) >> 63
        flat <<= 1
        flat ^= sign.view(np.uint64)
        planes = _planes(flat).copy()
        # a call a plane: a call hands the interpreter lock to a
        # stepping thread and back, but one stream over all eight planes
        # costs more in the noisy low ones (docs/serving.md)
        packed = []
        for plane in planes[::-1]:
            small = zlib.compress(plane, 1)
            if len(small) >= plane.nbytes:
                break
            packed.append(small)
        return cls(
            shape=arr.shape,
            dtype=arr.dtype,
            raw=planes[:8 - len(packed)].copy(),
            packed=tuple(packed),
        )

    def unpack(self) -> np.ndarray:
        """A new array equal to the packed one, bit for bit."""
        out = np.empty(self.shape, self.dtype)
        bits = out.view(np.uint64)
        flat = bits.reshape(-1)
        planes = _planes(flat)
        # row by row: one strided assignment of all rows is slower
        for k, row in enumerate(self.raw):
            planes[k] = row
        for k, small in enumerate(self.packed):
            planes[7 - k] = np.frombuffer(zlib.decompress(small), np.uint8)
        # zigzag undone
        sign = flat & 1
        np.negative(sign, out=sign)
        flat >>= 1
        flat ^= sign
        # the residuals summed back, wrapping mod 2**64
        for axis in range(bits.ndim):
            np.cumsum(bits, axis=axis, out=bits)
        return out

    @property
    def nbytes(self) -> int:
        """What the packed form holds."""
        return self.raw.nbytes + sum(map(len, self.packed))

    @property
    def raw_nbytes(self) -> int:
        """What the array it packs holds."""
        return self.raw.shape[1] * 8


def _planes(flat: np.ndarray) -> np.ndarray:
    """A flat contiguous 8-byte array's bytes as ``(8, values)``, row
    ``k`` the ``k``-th least significant byte of every value (a
    view)."""
    return flat.view(np.uint8).reshape(-1, 8)[:, _LEAST_FIRST].T


@dataclasses.dataclass
class PackedSnapshot:
    """A :class:`Snapshot` at rest: the same ranks, time and step, each
    array a :class:`PackedArray` (``Snapshot.pack()``)."""

    arrays: List[Dict[str, PackedArray]]
    tracers: List[List[PackedArray]]
    time: float
    step: int

    def materialize(self) -> Ranks:
        """The arrays unpacked, ``(fields, tracers)`` per rank: a new
        member's own storage."""
        return _map_ranks(PackedArray.unpack, self.arrays, self.tracers)

    @property
    def nbytes(self) -> int:
        """Bytes held, packed."""
        return self._total("nbytes")

    @property
    def raw_nbytes(self) -> int:
        """Bytes of the snapshot it packs."""
        return self._total("raw_nbytes")

    def _total(self, attr: str) -> int:
        return sum(
            getattr(a, attr) for fields in self.arrays
            for a in fields.values()
        ) + sum(getattr(t, attr) for ts in self.tracers for t in ts)


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------


def save_checkpoint(
    path,
    states: Sequence,
    time: float,
    step: int,
    extra_meta: Optional[Dict[str, object]] = None,
) -> pathlib.Path:
    """Write a versioned ``.npz`` checkpoint; returns the written path."""
    path = pathlib.Path(path)
    n_tracers = len(states[0].tracers) if states else 0
    meta = {
        "version": CHECKPOINT_VERSION,
        "time": float(time),
        "step": int(step),
        "n_ranks": len(states),
        "n_tracers": n_tracers,
        "fields": list(STATE_FIELDS),
    }
    if extra_meta:
        meta.update(extra_meta)
    payload: Dict[str, np.ndarray] = {
        "__meta__": np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        ).copy()
    }
    for r, state in enumerate(states):
        for name in STATE_FIELDS:
            payload[f"r{r}_{name}"] = getattr(state, name)
        for t, tracer in enumerate(state.tracers):
            payload[f"r{r}_tracer{t}"] = tracer
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **payload)
    return path


#: low-level failures a truncated/garbled ``.npz`` surfaces as
_CORRUPT_EXCS = (
    zipfile.BadZipFile, zlib.error, OSError, EOFError, ValueError, KeyError,
)


def _open_npz(path):
    """``np.load`` with damage reported as :class:`CheckpointCorruptError`
    (a missing file stays a plain ``FileNotFoundError``)."""
    try:
        return np.load(path)
    except FileNotFoundError:
        raise
    except _CORRUPT_EXCS as exc:
        raise CheckpointCorruptError(
            path, f"unreadable npz archive ({type(exc).__name__}: {exc})"
        ) from exc


def checkpoint_meta(path) -> Dict[str, object]:
    """The metadata header of a checkpoint file (version-checked)."""
    with _open_npz(pathlib.Path(path)) as data:
        return _read_meta(data, path)


def _read_meta(data, path) -> Dict[str, object]:
    if "__meta__" not in data:
        raise CheckpointCorruptError(
            path, "not a repro checkpoint (no header)",
            extra_keys=sorted(data.files),
        )
    try:
        meta = json.loads(bytes(data["__meta__"]).decode())
    except _CORRUPT_EXCS + (UnicodeDecodeError,) as exc:
        raise CheckpointCorruptError(
            path, f"corrupt header: {exc}"
        ) from exc
    version = meta.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format version {version!r} is not "
            f"supported (this build reads version {CHECKPOINT_VERSION})"
        )
    return meta


def _expected_keys(n_ranks: int, n_tracers: int) -> List[str]:
    keys = []
    for r in range(n_ranks):
        keys.extend(f"r{r}_{name}" for name in STATE_FIELDS)
        keys.extend(f"r{r}_tracer{t}" for t in range(n_tracers))
    return keys


def load_checkpoint(path, states: Sequence) -> Dict[str, object]:
    """Restore ``states`` in place from a checkpoint file.

    Validates the header and *every* array shape before writing into any
    state array; returns the metadata dict (``time``/``step`` for the
    caller to adopt).
    """
    path = pathlib.Path(path)
    with _open_npz(path) as data:
        meta = _read_meta(data, path)
        if meta["n_ranks"] != len(states):
            raise CheckpointError(
                f"{path}: checkpoint has {meta['n_ranks']} ranks, "
                f"model has {len(states)}"
            )
        for r, state in enumerate(states):
            if len(state.tracers) != meta["n_tracers"]:
                raise CheckpointError(
                    f"{path}: checkpoint has {meta['n_tracers']} tracers, "
                    f"rank {r} has {len(state.tracers)}"
                )
        # schema check: the file must hold exactly the arrays the model
        # expects — report the full delta, not the first KeyError
        expected = _expected_keys(len(states), int(meta["n_tracers"]))
        actual = set(data.files) - {"__meta__"}
        missing = [k for k in expected if k not in actual]
        extra = sorted(actual - set(expected))
        if missing or extra:
            raise CheckpointCorruptError(
                path, "checkpoint schema does not match the model",
                missing_keys=missing, extra_keys=extra,
                version=meta.get("version"),
            )
        # validate everything up front: a restore is all-or-nothing.
        # Arrays are decompressed here, so a truncated member surfaces
        # as CheckpointCorruptError before any state is touched.
        loaded: Dict[str, np.ndarray] = {}
        try:
            for key in expected:
                loaded[key] = data[key]
        except _CORRUPT_EXCS as exc:
            raise CheckpointCorruptError(
                path,
                f"truncated array data at {key!r} "
                f"({type(exc).__name__}: {exc})",
                version=meta.get("version"),
            ) from exc
        for r, state in enumerate(states):
            for name in STATE_FIELDS:
                key = f"r{r}_{name}"
                if loaded[key].shape != getattr(state, name).shape:
                    raise CheckpointError(
                        f"{path}: array {key!r} shape {loaded[key].shape} "
                        f"does not match model shape "
                        f"{getattr(state, name).shape}"
                    )
        for r, state in enumerate(states):
            for name in STATE_FIELDS:
                np.copyto(getattr(state, name), loaded[f"r{r}_{name}"])
            for t in range(meta["n_tracers"]):
                np.copyto(state.tracers[t], loaded[f"r{r}_tracer{t}"])
    return meta
