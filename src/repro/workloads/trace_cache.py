"""Packed trace cache: an in-process memo of generated traces.

Sweep grids hold the workload axes fixed far more often than they vary
them, so every grid point used to re-run the same deterministic
:class:`~repro.workloads.traces.TraceGenerator` from scratch.  This module
memoises a generated trace in the :class:`~repro.core.digest_batch.DigestBatch`
packed layout (digests back to back + a ``uint32`` chunk-size array), keyed
by the full generation identity ``(profile, seed, identity_space)``:
rehydrating ``Fingerprint`` objects from the packed buffer is far cheaper
than re-running the generator, and every call gets a fresh list (callers
may do what they like with it).  Each ``run_sweep(workers=N)`` pool worker
keeps a memo of its own.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

from ..dedup.fingerprint import Fingerprint, column_builder
from .profiles import WorkloadProfile
from .traces import TraceGenerator

__all__ = ["generate_trace", "clear_memo"]

#: Packed payloads keyed by trace identity.  Cleared wholesale past the cap
#: rather than evicted one by one: traces are large, and a sweep touches
#: only a handful of distinct ones at a time.
_MEMO: dict = {}
_MEMO_MAX = 8

_DIGEST_BYTES = 20


def _pack(fingerprints: List[Fingerprint]) -> Tuple[bytes, array]:
    blob = b"".join(fingerprint.digest for fingerprint in fingerprints)
    sizes = array("I", (fingerprint.chunk_size for fingerprint in fingerprints))
    return blob, sizes


_build_fingerprints = column_builder(Fingerprint)


def _rehydrate(blob: bytes, sizes: array) -> List[Fingerprint]:
    # Bypasses __post_init__: the 20-byte invariant is enforced by the packing.
    digests = [blob[start:start + _DIGEST_BYTES] for start in range(0, len(blob), _DIGEST_BYTES)]
    return _build_fingerprints(len(digests), digests, sizes)


def generate_trace(
    profile: WorkloadProfile,
    seed: int = 0,
    identity_space: Optional[str] = None,
) -> List[Fingerprint]:
    """The trace ``TraceGenerator(profile, seed, identity_space)`` yields.

    Byte-identical to ``list(generator.generate())`` (pinned by the
    differential suite); repeated calls rehydrate from the packed memo.
    """
    # The profile is frozen and holds every generator input but these two.
    key = (profile, seed, identity_space if identity_space is not None else profile.name)
    packed = _MEMO.get(key)
    if packed is not None:
        return _rehydrate(*packed)
    generator = TraceGenerator(profile, seed=seed, identity_space=identity_space)
    fingerprints = list(generator.generate())
    if len(_MEMO) >= _MEMO_MAX:
        _MEMO.clear()
    _MEMO[key] = _pack(fingerprints)
    return fingerprints


def clear_memo() -> None:
    """Drop the in-process packed memo (tests and memory-pressure hooks)."""
    _MEMO.clear()
