"""DDFS-style centralized index (Zhu, Li, Patterson -- FAST 2008).

The Data Domain File System avoids the disk bottleneck with three techniques:
a *summary vector* (bloom filter) that short-circuits lookups for new chunks,
*stream-informed segment layout* (fingerprints of chunks written together are
stored together in containers), and *locality-preserving caching* (a cache
miss loads the whole container's fingerprints into RAM, prefetching the
neighbours that are likely to be queried next).

This baseline models those mechanisms on top of the HDD device model and is
the second centralized reference point in the tier ablation.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from ..dedup.fingerprint import Fingerprint
from ..dedup.index import ChunkIndex, ChunkLocation, LookupResult
from ..storage.bloom import BloomFilter
from ..storage.devices import StorageDevice, make_hdd
from ..storage.lru import LRUCache

__all__ = ["DDFSIndex"]


class DDFSIndex(ChunkIndex):
    """Bloom filter + locality-preserving container cache over a disk index."""

    def __init__(
        self,
        device: Optional[StorageDevice] = None,
        container_fingerprints: int = 1024,
        cache_containers: int = 64,
        bloom_expected_items: int = 10_000_000,
        bloom_false_positive_rate: float = 0.01,
        cpu_per_lookup: float = 20e-6,
        name: str = "ddfs",
    ) -> None:
        if container_fingerprints < 1:
            raise ValueError("container_fingerprints must be >= 1")
        self.name = name
        self.device = device if device is not None else make_hdd(name=f"{name}.hdd")
        self.container_fingerprints = container_fingerprints
        self.summary_vector = BloomFilter(bloom_expected_items, bloom_false_positive_rate)
        self.container_cache = LRUCache(cache_containers)
        self.cpu_per_lookup = cpu_per_lookup
        self.counters = Counter()
        # Full on-disk index: digest -> container id, plus container contents.
        self._index: Dict[bytes, int] = {}
        self._containers: List[List[bytes]] = [[]]
        self._cached_digests: set = set()

    # -- container bookkeeping -----------------------------------------------------------
    def _current_container(self) -> int:
        if len(self._containers[-1]) >= self.container_fingerprints:
            self._containers.append([])
        return len(self._containers) - 1

    def _load_container(self, container_id: int) -> None:
        """Bring a container's fingerprints into the locality cache."""
        evicted = self.container_cache.put(container_id, True)
        if evicted is not None:
            evicted_id, _ = evicted
            self._cached_digests.difference_update(self._containers[evicted_id])
        self._cached_digests.update(self._containers[container_id])

    # -- ChunkIndex ------------------------------------------------------------------------
    def lookup(self, fingerprint: Fingerprint) -> LookupResult:
        digest = fingerprint.digest
        self.counters["lookups"] += 1
        service_time = self.cpu_per_lookup

        # 1. Locality-preserving cache.
        if digest in self._cached_digests:
            self.counters["cache_hits"] += 1
            container_id = self._index[digest]
            self.container_cache.get(container_id)  # refresh recency
            return LookupResult(
                fingerprint, True, ChunkLocation(container_id=container_id), service_time, self.name
            )

        # 2. Summary vector: definite misses never touch the disk.
        if digest not in self.summary_vector:
            self.counters["summary_negative"] += 1
            service_time += self._store_new(digest, fingerprint)
            return LookupResult(fingerprint, False, ChunkLocation(), service_time, self.name)

        # 3. On-disk index probe (one random I/O) + container prefetch.
        service_time += self.device.read_cost(4096)
        container_id = self._index.get(digest)
        if container_id is not None:
            self.counters["disk_hits"] += 1
            # Prefetch the whole container's metadata (sequential read).
            service_time += self.device.read_cost(
                self.container_fingerprints * 64, random_access=False
            )
            self._load_container(container_id)
            return LookupResult(
                fingerprint, True, ChunkLocation(container_id=container_id), service_time, self.name
            )

        # Bloom false positive.
        self.counters["summary_false_positive"] += 1
        service_time += self._store_new(digest, fingerprint)
        return LookupResult(fingerprint, False, ChunkLocation(), service_time, self.name)

    def _store_new(self, digest: bytes, fingerprint: Fingerprint) -> float:
        self.counters["new_entries"] += 1
        container_id = self._current_container()
        self._containers[container_id].append(digest)
        self._index[digest] = container_id
        self.summary_vector.add(digest)
        if container_id in self.container_cache:
            self._cached_digests.add(digest)
        # New entries are written out with their container (sequential,
        # amortised over the container's fingerprints).
        return self.device.write_cost(64, random_access=False)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint.digest in self._index

    def cache_hit_ratio(self) -> float:
        """Fraction of duplicate lookups served from the locality cache."""
        hits = self.counters["cache_hits"]
        duplicates = hits + self.counters["disk_hits"]
        return hits / duplicates if duplicates else 0.0
