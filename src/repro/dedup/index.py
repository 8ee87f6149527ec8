"""Chunk index interfaces and reference implementations.

The *chunk index* answers "has this fingerprint been stored before, and if
so where?".  SHHC's contribution is a distributed chunk index; the baselines
are centralized ones.  Both sides implement :class:`ChunkIndex`, so the
directory archiver, examples and experiments can swap them freely.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .fingerprint import Fingerprint

__all__ = ["ChunkLocation", "LookupResult", "ChunkIndex", "InMemoryChunkIndex"]


@dataclass(frozen=True, slots=True)
class ChunkLocation:
    """Where a stored chunk lives (container/offset in the backing store)."""

    container_id: int = 0
    offset: int = 0


@dataclass(frozen=True, slots=True)
class LookupResult:
    """Outcome of one fingerprint lookup."""

    fingerprint: Fingerprint
    is_duplicate: bool
    location: Optional[ChunkLocation] = None
    latency: float = 0.0
    served_by: str = ""


class ChunkIndex(ABC):
    """Interface every fingerprint store/lookup service implements."""

    @abstractmethod
    def lookup(self, fingerprint: Fingerprint) -> LookupResult:
        """Query a single fingerprint, inserting it if it was not present.

        This is the paper's combined lookup/insert operation: a miss both
        reports "unique" and records the fingerprint so subsequent queries
        see it as a duplicate.
        """

    def lookup_batch(self, fingerprints: Iterable[Fingerprint]) -> List[LookupResult]:
        """Query many fingerprints; default implementation loops."""
        return [self.lookup(fp) for fp in fingerprints]

    @abstractmethod
    def __len__(self) -> int:
        """Number of distinct fingerprints stored."""

    @abstractmethod
    def __contains__(self, fingerprint: Fingerprint) -> bool:
        """Read-only membership test (must not insert)."""


class InMemoryChunkIndex(ChunkIndex):
    """The simplest possible index: a Python dict.

    Used as the ground-truth oracle in tests and as the RAM-only extreme in
    the tier ablation.
    """

    def __init__(self, name: str = "memory-index") -> None:
        self.name = name
        self._entries: Dict[bytes, ChunkLocation] = {}
        self._next_offset = 0
        self.lookups = 0
        self.duplicates = 0

    def lookup(self, fingerprint: Fingerprint) -> LookupResult:
        self.lookups += 1
        existing = self._entries.get(fingerprint.digest)
        if existing is not None:
            self.duplicates += 1
            return LookupResult(fingerprint, True, existing, served_by=self.name)
        location = ChunkLocation(container_id=0, offset=self._next_offset)
        self._next_offset += max(1, fingerprint.chunk_size)
        self._entries[fingerprint.digest] = location
        return LookupResult(fingerprint, False, location, served_by=self.name)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint.digest in self._entries

    def duplicate_ratio(self) -> float:
        """Fraction of lookups that found an existing entry."""
        return self.duplicates / self.lookups if self.lookups else 0.0
