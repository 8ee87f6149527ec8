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
from itertools import repeat
from math import log
from typing import Dict, Iterable, Iterator, List, Optional

from ..dedup.fingerprint import Fingerprint, column_builder
from ..simulation.rng import RandomStreams
from .profiles import WorkloadProfile

__all__ = ["TraceStatistics", "FingerprintTrace", "TraceGenerator", "measure_trace"]

#: Digests are SHA-1 outputs and chunk sizes come from a validated profile,
#: so blocks skip ``Fingerprint.__post_init__``.
_build_fingerprints = column_builder(Fingerprint)


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

    #: Fingerprints built and yielded together: enough to amortise the bulk
    #: constructor, few enough that ``generate()`` stays lazy.
    _BLOCK = 4096

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
        random = self._rng.random
        redundancy = self.profile.redundancy
        lambd = 1.0 / self.profile.duplicate_distance
        chunk_size = self.profile.chunk_size
        radius = self._FRESH_SEARCH_RADIUS
        identity_base = self._identity_base
        sha1 = hashlib.sha1

        # Identities are numbered 0, 1, 2, ... in order of first emission.
        history: List[int] = []        # identity emitted at each position
        last_position: List[int] = []  # identity -> most recent position
        digests: List[bytes] = []      # identity -> synthetic_fingerprint's digest

        for start in range(0, total, self._BLOCK):
            block: List[bytes] = []
            for position in range(start, min(start + self._BLOCK, total)):
                if position and random() < redundancy:
                    # Re-emit the identity last seen ~d back, d ~ Exp(mean
                    # distance): ``rng.expovariate(lambd)`` written out.
                    distance = round(-log(1.0 - random()) / lambd)
                    target = position - (1 if distance < 1 else min(distance, position))
                    # Prefer a position that is still the *latest* occurrence
                    # of its identity, nearest first and the earlier of two at
                    # equal offset, so the realised reuse distance matches the
                    # sampled one; in a dense reuse region fall back to the
                    # sampled position's identity.
                    identity = history[target]
                    if last_position[identity] != target:
                        for offset in range(1, radius):
                            candidate = target - offset
                            if candidate >= 0 and last_position[history[candidate]] == candidate:
                                identity = history[candidate]
                                break
                            candidate = target + offset
                            if candidate < position and last_position[history[candidate]] == candidate:
                                identity = history[candidate]
                                break
                    last_position[identity] = position
                    digest = digests[identity]
                else:
                    identity = len(digests)
                    last_position.append(position)
                    digest = sha1((identity_base + identity).to_bytes(16, "big")).digest()
                    digests.append(digest)
                history.append(identity)
                block.append(digest)
            yield from _build_fingerprints(len(block), block, repeat(chunk_size))

    def materialize(self, count: Optional[int] = None) -> FingerprintTrace:
        """Generate the trace eagerly and wrap it with its profile."""
        return FingerprintTrace(profile=self.profile, fingerprints=list(self.generate(count)))


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
