"""Cloud object store (Amazon-S3 stand-in).

The paper's architecture hands unique chunks to a back-end cloud storage
service; the object store is deliberately off the lookup critical path, so a
simple content-addressed in-memory store is a faithful substitute.  It also maintains per-chunk reference
counts so that deduplicated backups can be deleted safely.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

__all__ = ["StoredObject", "CloudObjectStore"]


@dataclass
class StoredObject:
    """A chunk stored in the cloud back-end."""

    key: bytes
    data: bytes
    size: int
    reference_count: int = 1


class CloudObjectStore:
    """Content-addressed object store with reference counting.

    Parameters
    ----------
    base_latency:
        One-way request latency to the cloud provider, seconds
        (:meth:`transfer_time` models the WAN trip as ``base_latency`` +
        size / ``bandwidth``).
    bandwidth:
        Upload/download bandwidth in bytes per second.
    verify_content:
        When true, :meth:`put` checks that the supplied key matches the
        SHA-1 of the data (catching client-side fingerprinting bugs).
    """

    def __init__(
        self,
        base_latency: float = 20e-3,
        bandwidth: float = 100e6,
        verify_content: bool = False,
    ) -> None:
        self.base_latency = base_latency
        self.bandwidth = bandwidth
        self.verify_content = verify_content
        self._objects: Dict[bytes, StoredObject] = {}
        self.counters = Counter()

    # -- synchronous API -----------------------------------------------------------
    def put(self, key: bytes, data: bytes) -> bool:
        """Store ``data`` under ``key``.  Returns ``True`` if the chunk was new.

        Re-storing an existing key only bumps its reference count, mirroring
        how a deduplicating back-end tracks logical references.
        """
        if self.verify_content:
            digest = hashlib.sha1(data).digest()
            if digest != key:
                raise ValueError("object key does not match SHA-1 of its data")
        self.counters["puts"] += 1
        existing = self._objects.get(key)
        if existing is not None:
            existing.reference_count += 1
            self.counters["duplicate_puts"] += 1
            return False
        self._objects[key] = StoredObject(key=key, data=data, size=len(data))
        self.counters["bytes_stored"] += len(data)
        return True

    def add_reference(self, key: bytes) -> bool:
        """Record one more logical reference to an existing chunk."""
        obj = self._objects.get(key)
        if obj is None:
            return False
        obj.reference_count += 1
        self.counters["references_added"] += 1
        return True

    def get(self, key: bytes) -> Optional[bytes]:
        """Fetch chunk data (``None`` when absent)."""
        self.counters["gets"] += 1
        obj = self._objects.get(key)
        return obj.data if obj is not None else None

    def release(self, key: bytes) -> bool:
        """Drop one reference; the chunk is removed when none remain."""
        obj = self._objects.get(key)
        if obj is None:
            return False
        obj.reference_count -= 1
        if obj.reference_count <= 0:
            del self._objects[key]
            self.counters["bytes_reclaimed"] += obj.size
        return True

    def __contains__(self, key: bytes) -> bool:
        return key in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def reference_count(self, key: bytes) -> int:
        """Current reference count for ``key`` (0 when absent)."""
        obj = self._objects.get(key)
        return obj.reference_count if obj is not None else 0

    def total_bytes(self) -> int:
        """Physical bytes currently stored."""
        return sum(obj.size for obj in self._objects.values())

    def objects(self) -> Iterator[Tuple[bytes, StoredObject]]:
        return iter(list(self._objects.items()))

    # -- cost model -------------------------------------------------------------------
    def transfer_time(self, size_bytes: int) -> float:
        """Modelled WAN time to move ``size_bytes`` to/from the store."""
        return self.base_latency + size_bytes / self.bandwidth
