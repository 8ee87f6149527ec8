"""Combining workload traces.

The paper's Figure 5 experiment feeds "the aforementioned 4 mixed workloads"
to the cluster from two client machines.  The mixer builds that combined
stream: each workload's trace is generated independently (disjoint
fingerprint spaces) and the streams are interleaved, either round-robin at a
configurable granularity (preserving per-stream locality, as real concurrent
backup streams would) or by concatenation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..dedup.fingerprint import Fingerprint
from ..dedup.segment import interleave_streams
from .profiles import TABLE_I_PROFILES, WorkloadProfile
from .trace_cache import generate_trace

__all__ = ["WorkloadMix", "table_i_mix"]


class WorkloadMix:
    """A set of workload profiles that generate one combined fingerprint stream."""

    def __init__(self, profiles: Sequence[WorkloadProfile], seed: int = 0) -> None:
        if not profiles:
            raise ValueError("at least one profile is required")
        self.profiles = list(profiles)
        self.seed = seed

    # -- generation -----------------------------------------------------------------
    def streams(self, scale: float = 1.0) -> List[List[Fingerprint]]:
        """Generate one fingerprint list per profile (scaled).

        Traces come through the packed trace cache
        (:mod:`repro.workloads.trace_cache`): byte-identical to running the
        generator directly, but repeated generations in one process
        rehydrate instead of regenerating.
        """
        streams: List[List[Fingerprint]] = []
        for profile in self.profiles:
            scaled = profile.scaled(scale) if scale != 1.0 else profile
            streams.append(generate_trace(scaled, seed=self.seed, identity_space=profile.name))
        return streams

    def interleaved(self, scale: float = 1.0, granularity: int = 64) -> List[Fingerprint]:
        """Round-robin interleaving of the scaled streams.

        ``granularity`` fingerprints are taken from each stream per turn,
        mimicking how concurrent backup streams mix at the front end while
        each stream retains its internal locality.
        """
        return interleave_streams(self.streams(scale), granularity=granularity)

    def concatenated(self, scale: float = 1.0) -> List[Fingerprint]:
        """The scaled streams appended one after another."""
        combined: List[Fingerprint] = []
        for stream in self.streams(scale):
            combined.extend(stream)
        return combined

    def split_among_clients(
        self,
        num_clients: int,
        scale: float = 1.0,
        granularity: int = 64,
    ) -> List[List[Fingerprint]]:
        """Partition the interleaved mix across ``num_clients`` client machines.

        The paper uses two client machines; each gets a contiguous share of
        the combined stream so per-client locality is preserved.
        """
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        combined = self.interleaved(scale, granularity)
        share = -(-len(combined) // num_clients)
        return [combined[i * share:(i + 1) * share] for i in range(num_clients)]

    @property
    def total_fingerprints(self) -> int:
        """Unscaled total fingerprint count across the mix."""
        return sum(profile.fingerprints for profile in self.profiles)


def table_i_mix(seed: int = 0, profiles: Optional[Sequence[WorkloadProfile]] = None) -> WorkloadMix:
    """The four-workload mix used throughout the paper's evaluation."""
    return WorkloadMix(list(profiles) if profiles is not None else TABLE_I_PROFILES, seed=seed)
