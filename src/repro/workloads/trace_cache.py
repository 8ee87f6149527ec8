"""Packed trace cache: in-process memo + opt-in shared-memory publication.

Sweep grids hold the workload axes fixed far more often than they vary
them, so every grid point -- and, with ``run_sweep(workers=N)``, every
pool worker -- used to re-run the same deterministic
:class:`~repro.workloads.traces.TraceGenerator` from scratch.  This module
caches a generated trace in the :class:`~repro.core.digest_batch.DigestBatch`
packed layout (digests back to back + a ``uint32`` chunk-size array):

* **In-process memo** -- always on.  Keyed by the full generation identity
  ``(profile, seed, identity_space)``; rehydrating ``Fingerprint`` objects
  from the packed buffer is far cheaper than re-running the generator, and
  every call gets a fresh list (callers may do what they like with it).
* **Shared-memory publication** -- gated by the ``REPRO_TRACE_CACHE``
  environment variable holding a segment-name prefix.
  :func:`~repro.scenarios.engine.run_sweep` sets it (to a sweep-unique
  prefix) around its process pool, so the first worker to need a trace
  publishes it and the rest attach instead of regenerating.

Torn-read safety: a segment is created zeroed at full size, the payload is
written first, and the 4-byte magic is stamped *last* -- an attacher that
races the writer sees a zero magic and simply generates locally (correct,
just not accelerated).  Publication races (two workers generating the same
trace) lose gracefully: the loser keeps its local copy.

Cleanup: pool workers exit normally at pool shutdown, so their ``atexit``
sweep (:mod:`repro.storage.shm`) unlinks the segments they published; the
sweep parent additionally calls :func:`cleanup_shared_traces` with its
prefix, which removes anything a crashed worker left behind.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from typing import List, Optional, Tuple

from ..dedup.fingerprint import Fingerprint, column_builder
from .profiles import WorkloadProfile
from .traces import TraceGenerator

__all__ = [
    "generate_trace",
    "cleanup_shared_traces",
    "clear_memo",
    "TRACE_CACHE_ENV",
]

#: Environment variable carrying the shared-segment name prefix; unset (or
#: empty) keeps the cache purely in-process.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

_MAGIC = b"RTR1"
#: magic, digest count, payload bytes after the header.
_HEADER = struct.Struct(">4sQQ")

#: Packed payloads keyed by trace identity.  Cleared wholesale past the cap
#: rather than evicted one by one: traces are large, and a sweep touches
#: only a handful of distinct ones at a time.
_MEMO: dict = {}
_MEMO_MAX = 8

_DIGEST_BYTES = 20


def _trace_key(profile: WorkloadProfile, seed: int, identity_space: str) -> str:
    """Stable identity of one generated trace (all generator inputs)."""
    text = (
        f"{profile.name}|{profile.fingerprints}|{profile.redundancy!r}|"
        f"{profile.duplicate_distance!r}|{profile.chunk_size}|{seed}|{identity_space}"
    )
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def _segment_name(prefix: str, key: str) -> str:
    return f"{prefix}-{key}"


def _pack(fingerprints: List[Fingerprint]) -> Tuple[bytes, array]:
    blob = b"".join(fingerprint.digest for fingerprint in fingerprints)
    sizes = array("I", (fingerprint.chunk_size for fingerprint in fingerprints))
    return blob, sizes


_build_fingerprints = column_builder(Fingerprint)


def _rehydrate(blob: bytes, sizes: array) -> List[Fingerprint]:
    # Bypasses __post_init__: the 20-byte invariant is enforced by the packing.
    digests = [blob[start:start + _DIGEST_BYTES] for start in range(0, len(blob), _DIGEST_BYTES)]
    return _build_fingerprints(len(digests), digests, sizes)


def _attach_shared(name: str, count_hint: int) -> Optional[Tuple[bytes, array]]:
    """Read a published trace, or ``None`` (absent, torn, or unavailable)."""
    from ..storage.shm import SharedBuffer, shared_memory_available

    if not shared_memory_available():
        return None
    try:
        buffer = SharedBuffer.attach(name)
    except (FileNotFoundError, OSError, ValueError):
        # ValueError: the publisher has created the segment but not yet
        # sized it, and an empty file cannot be mapped.
        return None
    try:
        view = memoryview(buffer.buf)
        try:
            if len(view) < _HEADER.size:
                return None
            magic, count, payload_bytes = _HEADER.unpack_from(view, 0)
            if magic != _MAGIC or len(view) < _HEADER.size + payload_bytes:
                return None  # absent-or-mid-write: generate locally
            expected = count * (_DIGEST_BYTES + 4)
            if payload_bytes != expected:
                return None
            blob_end = _HEADER.size + count * _DIGEST_BYTES
            blob = bytes(view[_HEADER.size:blob_end])
            sizes = array("I")
            sizes.frombytes(bytes(view[blob_end:blob_end + count * 4]))
            return blob, sizes
        finally:
            view.release()
    finally:
        buffer.close()


def _publish_shared(name: str, blob: bytes, sizes: array) -> None:
    """Best-effort publication; losing a create race is fine."""
    from ..storage.shm import SharedBuffer, shared_memory_available

    if not shared_memory_available():
        return
    count = len(blob) // _DIGEST_BYTES
    payload_bytes = len(blob) + count * 4
    try:
        buffer = SharedBuffer.create(_HEADER.size + payload_bytes, name=name, shared=True)
    except (FileExistsError, OSError):
        return  # someone else published (or the platform refused); keep local
    if buffer.name is None:
        return  # bytearray fallback: nothing cross-process to publish
    view = memoryview(buffer.buf)
    try:
        blob_end = _HEADER.size + len(blob)
        view[_HEADER.size:blob_end] = blob
        view[blob_end:blob_end + count * 4] = sizes.tobytes()
        # Magic last: attachers treat a zero magic as "not published yet".
        _HEADER.pack_into(view, 0, _MAGIC, count, payload_bytes)
    finally:
        view.release()
        # Detach but do NOT unlink: the segment stays for other workers;
        # this process's atexit sweep (or the sweep parent's
        # cleanup_shared_traces) removes it.  The segment stays registered
        # in _CREATED_SEGMENTS so that sweep finds it.
        buffer.close()


def generate_trace(
    profile: WorkloadProfile,
    seed: int = 0,
    identity_space: Optional[str] = None,
    shared_prefix: Optional[str] = None,
) -> List[Fingerprint]:
    """The trace ``TraceGenerator(profile, seed, identity_space)`` yields.

    Byte-identical to ``list(generator.generate())`` (pinned by the
    differential suite); repeated calls rehydrate from the packed memo, and
    ``shared_prefix`` (usually from :data:`TRACE_CACHE_ENV`) additionally
    consults/publishes the cross-process cache.
    """
    space = identity_space if identity_space is not None else profile.name
    key = _trace_key(profile, seed, space)
    packed = _MEMO.get(key)
    if packed is not None:
        return _rehydrate(*packed)
    if shared_prefix:
        packed = _attach_shared(_segment_name(shared_prefix, key), profile.fingerprints)
        if packed is not None:
            if len(_MEMO) >= _MEMO_MAX:
                _MEMO.clear()
            _MEMO[key] = packed
            return _rehydrate(*packed)
    generator = TraceGenerator(profile, seed=seed, identity_space=identity_space)
    fingerprints = list(generator.generate())
    packed = _pack(fingerprints)
    if len(_MEMO) >= _MEMO_MAX:
        _MEMO.clear()
    _MEMO[key] = packed
    if shared_prefix:
        _publish_shared(_segment_name(shared_prefix, key), *packed)
    return fingerprints


def clear_memo() -> None:
    """Drop the in-process packed memo (tests and memory-pressure hooks)."""
    _MEMO.clear()


def cleanup_shared_traces(prefix: str) -> int:
    """Unlink every published trace segment under ``prefix``.

    Supervisor-side crash cleanup: worker exits normally unlink their own
    segments, but a ``kill -9``'d worker cannot.  Segment names are
    ``{prefix}-{16 hex chars}``; on platforms exposing ``/dev/shm`` they are
    enumerated there, elsewhere this is a no-op (the names are not
    discoverable portably).  Returns how many segments were removed.
    """
    import os

    from ..storage.shm import unlink_segment

    removed = 0
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        try:
            entries = os.listdir(shm_dir)
        except OSError:
            entries = []
        for entry in entries:
            if entry.startswith(f"{prefix}-"):
                removed += unlink_segment(entry)
    return removed
