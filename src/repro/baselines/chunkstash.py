"""ChunkStash-style centralized index (Debnath et al., USENIX ATC 2010).

ChunkStash keeps the full chunk metadata log on SSD and a *compact* cuckoo
hash index of it in RAM, giving at most one flash read per lookup.  The
paper positions SHHC as the distributed complement of this class of design:
ChunkStash removes the disk bottleneck but remains a single server.

This baseline reproduces that behaviour as a centralized
:class:`~repro.dedup.index.ChunkIndex`:

* a positive RAM index hit costs one SSD read (to fetch the full entry),
* a negative lookup costs no flash read at all (the RAM index is authoritative),
* inserts append to an SSD write buffer that is flushed one page at a time.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..dedup.fingerprint import Fingerprint
from ..dedup.index import ChunkIndex, ChunkLocation, LookupResult
from ..storage.cuckoo import CuckooHashTable
from ..storage.devices import StorageDevice, make_ssd
from ..storage.lru import LRUCache

__all__ = ["ChunkStashIndex"]


class ChunkStashIndex(ChunkIndex):
    """Centralized RAM-cuckoo-index + SSD-log chunk index."""

    def __init__(
        self,
        device: Optional[StorageDevice] = None,
        cache_entries: int = 100_000,
        page_size: int = 4096,
        entry_size: int = 64,
        cpu_per_lookup: float = 20e-6,
        name: str = "chunkstash",
    ) -> None:
        self.name = name
        self.device = device if device is not None else make_ssd(name=f"{name}.ssd")
        self.ram_index = CuckooHashTable(initial_buckets=4096)
        self.metadata_cache = LRUCache(cache_entries)
        self.page_size = page_size
        self.entry_size = entry_size
        self.entries_per_page = max(1, page_size // entry_size)
        self.cpu_per_lookup = cpu_per_lookup
        self.counters = Counter()
        self._log_offset = 0
        self._buffered_entries = 0

    def lookup(self, fingerprint: Fingerprint) -> LookupResult:
        digest = fingerprint.digest
        self.counters["lookups"] += 1
        service_time = self.cpu_per_lookup

        offset = self.ram_index.get(digest)
        if offset is not None:
            self.counters["index_hits"] += 1
            if self.metadata_cache.get(digest) is None:
                # One flash read to fetch the full on-SSD entry.
                service_time += self.device.read_cost(self.page_size)
                self.counters["flash_reads"] += 1
                self.metadata_cache.put(digest, True)
            return LookupResult(
                fingerprint, True, ChunkLocation(offset=offset), service_time, self.name
            )

        # Negative lookup: the RAM index is authoritative, no flash read needed.
        self.counters["new_entries"] += 1
        location = ChunkLocation(offset=self._log_offset)
        self.ram_index.put(digest, self._log_offset)
        self.metadata_cache.put(digest, True)
        self._log_offset += self.entry_size
        self._buffered_entries += 1
        if self._buffered_entries >= self.entries_per_page:
            # Sequential append of one full page of new entries.
            service_time += self.device.write_cost(self.page_size, random_access=False)
            self.counters["flash_writes"] += 1
            self._buffered_entries = 0
        return LookupResult(fingerprint, False, location, service_time, self.name)

    def __len__(self) -> int:
        return len(self.ram_index)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint.digest in self.ram_index

    def ram_bytes(self) -> int:
        """Approximate RAM footprint of the compact index (bytes)."""
        # ~6 bytes of compact key signature + 4 bytes of offset per entry is
        # the ChunkStash figure; we report that rather than Python overhead.
        return len(self.ram_index) * 10
