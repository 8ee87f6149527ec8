"""Naive disk-resident chunk index (the pre-ChunkStash/DDFS strawman).

Every lookup that misses the small in-RAM cache pays a random disk I/O on a
hard drive, which is the "disk bottleneck" the entire deduplication
literature (and the paper's introduction) starts from.  Used as the slowest
reference point in the tier ablation.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..dedup.fingerprint import Fingerprint
from ..dedup.index import ChunkIndex, ChunkLocation, LookupResult
from ..storage.devices import StorageDevice, make_hdd
from ..storage.hashstore import SSDHashStore
from ..storage.lru import LRUCache

__all__ = ["DiskIndex"]


class DiskIndex(ChunkIndex):
    """Centralized chunk index stored on a hard disk with a small RAM cache."""

    def __init__(
        self,
        cache_entries: int = 100_000,
        device: Optional[StorageDevice] = None,
        cpu_per_lookup: float = 20e-6,
        name: str = "disk-index",
    ) -> None:
        self.name = name
        self.device = device if device is not None else make_hdd(name=f"{name}.hdd")
        self.cache = LRUCache(cache_entries)
        # Reuse the bucketised store purely as the on-disk table layout.
        self.table = SSDHashStore(num_buckets=1 << 16, write_buffer_pages=0)
        self.cpu_per_lookup = cpu_per_lookup
        self.counters = Counter()

    def lookup(self, fingerprint: Fingerprint) -> LookupResult:
        digest = fingerprint.digest
        self.counters["lookups"] += 1
        service_time = self.cpu_per_lookup

        if self.cache.get(digest) is not None:
            self.counters["cache_hits"] += 1
            return LookupResult(fingerprint, True, ChunkLocation(), service_time, self.name)

        # Cache miss: one random disk read to probe the on-disk bucket.
        for operation in self.table.lookup_io(digest):
            service_time += self.device.read_cost(operation.size_bytes)
        if digest in self.table:
            self.counters["disk_hits"] += 1
            self.cache.put(digest, True)
            return LookupResult(fingerprint, True, ChunkLocation(), service_time, self.name)

        # Not present: write the new entry back to disk.
        self.counters["new_entries"] += 1
        self.table.put(digest, fingerprint.chunk_size)
        self.cache.put(digest, True)
        service_time += self.device.write_cost(self.table.page_size)
        return LookupResult(fingerprint, False, ChunkLocation(), service_time, self.name)

    def __len__(self) -> int:
        return len(self.table)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint.digest in self.table
