"""The per-position ``TraceGenerator.generate``, kept as the reference model.

The generator used to *be* this loop: one fingerprint per position,
``rng.expovariate`` for the reuse distance, a helper that walks outwards
from the sampled position for a "fresh" identity, and a SHA-1 plus a
validated ``Fingerprint`` constructor per position, duplicates included.
``repro.workloads.traces.TraceGenerator`` now inlines all of that and builds
its fingerprints a block at a time; the differential suite
(``tests/test_trace_differential.py``) holds the two to the same sequence.
The stream name and the identity base are derived here the same way the
product derives them, so a change to either shows up as a mismatch.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional

from repro.dedup.fingerprint import Fingerprint, synthetic_fingerprint
from repro.simulation.rng import RandomStreams
from repro.workloads.profiles import WorkloadProfile

FRESH_SEARCH_RADIUS = 64


def reference_trace(
    profile: WorkloadProfile,
    seed: int = 0,
    identity_space: Optional[str] = None,
    count: Optional[int] = None,
) -> Iterator[Fingerprint]:
    """What ``TraceGenerator(profile, seed, identity_space).generate(count)`` yields."""
    space = identity_space if identity_space is not None else profile.name
    rng = RandomStreams(seed).stream(f"trace:{space}")
    base = hashlib.sha256(space.encode("utf-8")).digest()
    identity_base = int.from_bytes(base[:8], "big") << 64
    total = profile.fingerprints if count is None else int(count)
    if total < 1:
        raise ValueError("count must be >= 1")

    history: List[int] = []            # identity emitted at each position
    last_position: Dict[int, int] = {}  # identity -> most recent position
    next_identity = 0
    for position in range(total):
        if history and rng.random() < profile.redundancy:
            identity = _pick_duplicate(rng, history, last_position, position,
                                       profile.duplicate_distance)
        else:
            identity = identity_base + next_identity
            next_identity += 1
        history.append(identity)
        last_position[identity] = position
        yield synthetic_fingerprint(identity, profile.chunk_size)


def _pick_duplicate(rng, history: List[int], last_position: Dict[int, int],
                    position: int, mean_distance: float) -> int:
    """Choose an existing identity whose last occurrence is ~``d`` back."""
    limit = len(history)
    distance = min(limit, max(1, round(rng.expovariate(1.0 / mean_distance))))
    target = position - distance
    # Prefer a position that is still the *latest* occurrence of its
    # identity, so the realised reuse distance matches the sampled one.
    for offset in range(FRESH_SEARCH_RADIUS):
        for candidate in (target - offset, target + offset):
            if 0 <= candidate < limit:
                identity = history[candidate]
                if last_position[identity] == candidate:
                    return identity
    # Dense reuse region: fall back to the sampled position's identity.
    return history[max(0, min(limit - 1, target))]
