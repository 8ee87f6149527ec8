"""Synthetic fingerprint trace generation.

The real traces behind the paper's Table I are not publicly distributable, so
experiments run on synthetic traces that reproduce the three published
statistics of each workload -- fingerprint count, redundancy percentage, and
mean duplicate distance -- plus the qualitative property batching exploits
(duplicates of a fingerprint appear near its previous occurrence).

Generation model
----------------
The trace is generated position by position.  At each position the generator
emits, with probability ``redundancy``, a *duplicate*: it samples a reuse
distance ``d`` from an exponential distribution with the profile's mean
duplicate distance and re-emits the fingerprint whose most recent occurrence
is (approximately) ``d`` positions back.  Otherwise it emits a brand-new
fingerprint.  Fingerprints are real SHA-1 digests derived deterministically
from integer identities, so their distribution over the cluster's key space
is uniform, exactly like hashes of real chunks.

:func:`measure_trace` computes the same three statistics from any fingerprint
sequence, so tests and the Table-I benchmark can verify generated traces
against the published numbers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from ..dedup.fingerprint import Fingerprint, synthetic_fingerprint
from ..simulation.rng import RandomStreams
from .profiles import WorkloadProfile

__all__ = ["TraceStatistics", "FingerprintTrace", "TraceGenerator", "measure_trace"]


@dataclass(frozen=True)
class TraceStatistics:
    """The Table-I statistics of a fingerprint sequence."""

    fingerprints: int
    unique_fingerprints: int
    redundancy: float
    mean_duplicate_distance: float

    def as_row(self) -> dict:
        """Rendering-friendly dictionary (one Table I row)."""
        return {
            "fingerprints": self.fingerprints,
            "unique": self.unique_fingerprints,
            "redundant_pct": round(self.redundancy * 100.0, 1),
            "distance": round(self.mean_duplicate_distance),
        }


@dataclass
class FingerprintTrace:
    """A generated trace: the fingerprints plus the profile they came from."""

    profile: WorkloadProfile
    fingerprints: List[Fingerprint]

    def __len__(self) -> int:
        return len(self.fingerprints)

    def statistics(self) -> TraceStatistics:
        """Measured statistics of this trace."""
        return measure_trace(self.fingerprints)


class TraceGenerator:
    """Generates synthetic fingerprint traces from a workload profile.

    Parameters
    ----------
    profile:
        Workload description (usually one of the Table I profiles, possibly
        scaled down for laptop runs).
    seed:
        Master seed; traces are fully deterministic given (profile, seed).
    identity_space:
        Optional label mixed into the fingerprint identities so different
        workloads (or different backup generations) produce disjoint
        fingerprints even with the same seed.
    """

    #: How far around the sampled position to search for a "fresh" fingerprint
    #: (one whose most recent occurrence is that position).  Keeps the
    #: realised reuse distance close to the sampled one.
    _FRESH_SEARCH_RADIUS = 64

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 0,
        identity_space: Optional[str] = None,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.identity_space = identity_space if identity_space is not None else profile.name
        self._rng = RandomStreams(seed).stream(f"trace:{self.identity_space}")
        base = hashlib.sha256(self.identity_space.encode("utf-8")).digest()
        self._identity_base = int.from_bytes(base[:8], "big") << 64

    # -- generation -------------------------------------------------------------------
    def generate(self, count: Optional[int] = None) -> Iterator[Fingerprint]:
        """Yield ``count`` fingerprints (default: the profile's full length)."""
        total = self.profile.fingerprints if count is None else int(count)
        if total < 1:
            raise ValueError("count must be >= 1")
        rng = self._rng
        redundancy = self.profile.redundancy
        mean_distance = self.profile.duplicate_distance
        chunk_size = self.profile.chunk_size

        history: List[int] = []            # identity emitted at each position
        last_position: Dict[int, int] = {}  # identity -> most recent position
        next_identity = 0

        for position in range(total):
            emit_duplicate = history and rng.random() < redundancy
            if emit_duplicate:
                identity = self._pick_duplicate(rng, history, last_position, position, mean_distance)
            else:
                identity = self._identity_base + next_identity
                next_identity += 1
            history.append(identity)
            last_position[identity] = position
            yield synthetic_fingerprint(identity, chunk_size)

    def materialize(self, count: Optional[int] = None) -> FingerprintTrace:
        """Generate the trace eagerly and wrap it with its profile."""
        return FingerprintTrace(profile=self.profile, fingerprints=list(self.generate(count)))

    # -- duplicate selection ------------------------------------------------------------
    def _pick_duplicate(
        self,
        rng,
        history: List[int],
        last_position: Dict[int, int],
        position: int,
        mean_distance: float,
    ) -> int:
        """Choose an existing identity whose last occurrence is ~``d`` back."""
        limit = len(history)
        distance = min(limit, max(1, round(rng.expovariate(1.0 / mean_distance))))
        target = position - distance
        # Prefer a position that is still the *latest* occurrence of its
        # identity, so the realised reuse distance matches the sampled one.
        for offset in range(self._FRESH_SEARCH_RADIUS):
            for candidate in (target - offset, target + offset):
                if 0 <= candidate < limit:
                    identity = history[candidate]
                    if last_position[identity] == candidate:
                        return identity
        # Dense reuse region: fall back to the sampled position's identity.
        return history[max(0, min(limit - 1, target))]


def measure_trace(fingerprints: Iterable[Fingerprint]) -> TraceStatistics:
    """Compute Table-I statistics (count, redundancy, mean reuse distance)."""
    last_seen: Dict[bytes, int] = {}
    total = 0
    duplicates = 0
    distance_sum = 0
    for position, fingerprint in enumerate(fingerprints):
        digest = fingerprint.digest
        previous = last_seen.get(digest)
        if previous is not None:
            duplicates += 1
            distance_sum += position - previous
        last_seen[digest] = position
        total += 1
    redundancy = duplicates / total if total else 0.0
    mean_distance = distance_sum / duplicates if duplicates else 0.0
    return TraceStatistics(
        fingerprints=total,
        unique_fingerprints=len(last_seen),
        redundancy=redundancy,
        mean_duplicate_distance=mean_distance,
    )
