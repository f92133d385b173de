"""Checkpoint/restart: bit-exact snapshots of the dynamical-core state.

Two mechanisms, same contents (every prognostic array of every rank,
the model time and the step counter; the model carries no RNG state):

- :class:`Snapshot` — an in-memory copy used by the rollback/retry loop.
  Capture and restore are plain ``np.copyto`` round-trips, so a restored
  state is bit-identical to the captured one.
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
import zipfile
import zlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.resilience.errors import CheckpointCorruptError, CheckpointError

__all__ = [
    "CHECKPOINT_VERSION",
    "Snapshot",
    "checkpoint_meta",
    "load_checkpoint",
    "save_checkpoint",
]

CHECKPOINT_VERSION = 1

#: per-rank prognostic arrays, in serialization order
STATE_FIELDS = ("u", "v", "w", "pt", "delp", "delz")


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

    @property
    def nbytes(self) -> int:
        return sum(
            a.nbytes for fields in self.arrays for a in fields.values()
        ) + sum(t.nbytes for ts in self.tracers for t in ts)


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
