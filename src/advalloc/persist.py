"""On-disk format for trained networks and snapshot rings.

A file is one JSON header line followed by the raw bytes of every parameter
array, little-endian float64, in the policy's canonical parameter order. A
model header records the policy's kind, its constructor keywords (the names in
its ARCH, enough to rebuild it from scratch) and every array shape, so the
payload length is fully determined: any length mismatch is reported as
corruption rather than silently repaired. Loads are bit-exact inverses of
saves.
"""
from __future__ import annotations

import contextlib
import json
import math
from typing import Sequence

import numpy as np

from .game import checked_int
from .nets import AdversaryPolicy, AlgorithmPolicy
from .training import SnapshotRing

FORMAT_VERSION = 2
MODEL_FORMAT = "advalloc-model"
RING_FORMAT = "advalloc-ring"
_DTYPE = np.dtype("<f8")


class PersistError(RuntimeError):
    """Unreadable, corrupt, or incompatible artifact file."""


def _model_header(policy) -> dict:
    if not isinstance(policy, (AlgorithmPolicy, AdversaryPolicy)):
        raise PersistError(f"cannot save a {type(policy).__name__}")
    return {"format": MODEL_FORMAT, "version": FORMAT_VERSION, "kind": policy.kind,
            "shapes": [list(p.shape) for p in policy.params],
            **{key: getattr(policy, key) for key in policy.ARCH}}


def _payload(arrays: Sequence[np.ndarray]) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=_DTYPE).tobytes()
                    for a in arrays)


def _read_header(f, expected_format: str) -> dict:
    line = f.readline()
    try:
        header = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != expected_format:
        raise PersistError(
            f"expected a {expected_format} file, got {header.get('format')!r}"
            if isinstance(header, dict) else "expected a JSON object header")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise PersistError(
            f"file is format version {version}, this build reads version "
            f"{FORMAT_VERSION}")
    return header


@contextlib.contextmanager
def _header_errors(what: str):
    """Report a missing or wrongly typed header key as a PersistError."""
    try:
        yield
    except KeyError as exc:
        raise PersistError(f"{what} header lacks the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise PersistError(f"header describes an invalid {what}: {exc}") from exc


def _split_payload(blob: bytes, shapes: list[tuple[int, ...]],
                   what: str) -> list[np.ndarray]:
    expected = sum(math.prod(s) for s in shapes) * _DTYPE.itemsize
    if len(blob) != expected:
        raise PersistError(
            f"{what} payload is {len(blob)} bytes, header promises {expected}: "
            "truncated or corrupt file")
    if not np.isfinite(np.frombuffer(blob, dtype=_DTYPE)).all():
        raise PersistError(f"{what} holds non-finite parameters")
    arrays = []
    offset = 0
    for shape in shapes:
        count = math.prod(shape)
        flat = np.frombuffer(blob, dtype=_DTYPE, count=count, offset=offset)
        arrays.append(flat.reshape(shape).copy())
        offset += count * _DTYPE.itemsize
    return arrays


def save_model(path, policy) -> None:
    """Write a policy's architecture and parameters; load_model inverts it."""
    header = _model_header(policy)
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        f.write(_payload(policy.params))


def load_model(path):
    """Rebuild the saved policy with bit-identical parameters."""
    with open(path, "rb") as f:
        header = _read_header(f, MODEL_FORMAT)
        blob = f.read()
    kind = header.get("kind")
    cls = next((c for c in (AlgorithmPolicy, AdversaryPolicy) if c.kind == kind), None)
    if cls is None:
        raise PersistError(f"unknown model kind {kind!r}")
    with _header_errors("model"):
        policy = cls(**{key: header[key] for key in cls.ARCH})
        shapes = [tuple(s) for s in header["shapes"]]
    if shapes != [p.shape for p in policy.params]:
        raise PersistError("header shapes do not match the declared architecture")
    policy.set_params(_split_payload(blob, shapes, "model"))
    return policy


def save_ring(path, ring: SnapshotRing) -> None:
    """Write every ring entry (episode tag + parameter arrays) in order."""
    entries = ring.entries
    shapes = [list(p.shape) for p in entries[0].params] if entries else []
    for entry in entries:
        if [list(p.shape) for p in entry.params] != shapes:
            raise PersistError("ring entries disagree on parameter shapes")
    header = {"format": RING_FORMAT, "version": FORMAT_VERSION,
              "capacity": ring.capacity,
              "episodes": [e.episode for e in entries],
              "shapes": shapes}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for entry in entries:
            f.write(_payload(entry.params))


def load_ring(path) -> SnapshotRing:
    """Rebuild a snapshot ring with bit-identical entries."""
    with open(path, "rb") as f:
        header = _read_header(f, RING_FORMAT)
        blob = f.read()
    with _header_errors("ring"):
        ring = SnapshotRing(header["capacity"])
        episodes = [checked_int(e, "episode", minimum=None) for e in header["episodes"]]
        shapes = [tuple(checked_int(d, "shape entry", minimum=0) for d in s)
                  for s in header["shapes"]]
    per_entry = sum(math.prod(s) for s in shapes) * _DTYPE.itemsize
    if len(episodes) > ring.capacity:
        raise PersistError(
            f"{len(episodes)} entries exceed the declared capacity {ring.capacity}")
    if len(blob) != per_entry * len(episodes):
        raise PersistError(
            f"ring payload is {len(blob)} bytes, header promises "
            f"{per_entry * len(episodes)}: truncated or corrupt file")
    for i, episode in enumerate(episodes):
        chunk = blob[i * per_entry:(i + 1) * per_entry]
        ring.record(episode, _split_payload(chunk, shapes, "ring entry"))
    return ring
