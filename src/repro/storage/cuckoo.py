"""Cuckoo hash table.

ChunkStash (Debnath et al., USENIX ATC 2010) -- the closest prior system the
paper compares against conceptually -- keeps a compact in-RAM cuckoo hash
index pointing at fingerprints stored on flash, giving one flash read per
lookup.  We implement a standard 2-choice cuckoo hash table with configurable
bucket associativity and a displacement bound, used by the ChunkStash-style
baseline in :mod:`repro.baselines.chunkstash`.  The SHHC node's own table is
:class:`~repro.storage.hashstore.SSDHashStore`; nothing on the node, cluster
or serving path goes through this one.

Keys are 20-byte chunk digests, already uniform, so the two bucket choices
are read straight from the key's leading two 64-bit words, as ChunkStash
does; any other key raises :class:`ValueError`.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator, List, Optional, Tuple

from .packing import DIGEST_BYTES, digest_words

__all__ = ["CuckooHashTable", "CuckooInsertError"]

_SENTINEL = object()


class CuckooInsertError(RuntimeError):
    """Raised when an insertion cannot be placed within the displacement bound."""


class CuckooHashTable:
    """A 2-hash, bucketised cuckoo hash table mapping 20-byte digests to values.

    Parameters
    ----------
    initial_buckets:
        Number of buckets per table half at construction.
    slots_per_bucket:
        Bucket associativity (4 is the common choice).
    max_displacements:
        How many evict/re-insert steps to try before growing the table.
    """

    def __init__(
        self,
        initial_buckets: int = 1024,
        slots_per_bucket: int = 4,
        max_displacements: int = 500,
    ) -> None:
        if initial_buckets < 1:
            raise ValueError("initial_buckets must be >= 1")
        if slots_per_bucket < 1:
            raise ValueError("slots_per_bucket must be >= 1")
        self.slots_per_bucket = slots_per_bucket
        self.max_displacements = max_displacements
        self._num_buckets = initial_buckets
        self._buckets: List[List[Tuple[bytes, Any]]] = [[] for _ in range(initial_buckets)]
        self._size = 0
        self.displacements = 0
        self.resizes = 0

    # -- hashing ------------------------------------------------------------------
    def _hash_pair(self, key: bytes) -> Tuple[int, int]:
        """The digest's two leading 64-bit words (pre-modulus).

        Re-hashing a digest buys no extra uniformity and would dominate
        the per-op cost.
        """
        try:
            return digest_words(key)
        except struct.error:
            raise ValueError(f"cuckoo keys are {DIGEST_BYTES}-byte digests, not {key!r}") from None

    def _hashes(self, key: bytes) -> Tuple[int, int]:
        w1, w2 = self._hash_pair(key)
        num_buckets = self._num_buckets
        h1 = w1 % num_buckets
        h2 = w2 % num_buckets
        if h2 == h1:
            h2 = (h1 + 1) % num_buckets
        return h1, h2

    # -- public API -----------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def num_buckets(self) -> int:
        return self._num_buckets

    def load_factor(self) -> float:
        """Occupied slots divided by total slots."""
        return self._size / (self._num_buckets * self.slots_per_bucket)

    def get(self, key: bytes, default: Any = None) -> Any:
        """Return the value stored under ``key`` or ``default``."""
        for bucket_index in self._hashes(key):
            for stored_key, value in self._buckets[bucket_index]:
                if stored_key == key:
                    return value
        return default

    def __contains__(self, key: bytes) -> bool:
        return self.get(key, _SENTINEL) is not _SENTINEL

    def put(self, key: bytes, value: Any) -> None:
        """Insert or update ``key``; grows the table if placement fails."""
        if self._update_in_place(key, value):
            return
        entry = (key, value)
        for _attempt in range(8):  # growth attempts
            placed = self._insert_with_displacement(entry)
            if placed is None:
                self._size += 1
                return
            entry = placed
            self._grow()
        raise CuckooInsertError("unable to place entry even after growing")

    def remove(self, key: bytes) -> bool:
        """Delete ``key``; returns whether it was present."""
        for bucket_index in self._hashes(key):
            bucket = self._buckets[bucket_index]
            for i, (stored_key, _value) in enumerate(bucket):
                if stored_key == key:
                    bucket.pop(i)
                    self._size -= 1
                    return True
        return False

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        """Iterate all ``(key, value)`` pairs in unspecified order."""
        for bucket in self._buckets:
            yield from bucket

    def keys(self) -> Iterator[bytes]:
        for key, _value in self.items():
            yield key

    # -- internals ---------------------------------------------------------------------
    def _update_in_place(self, key: bytes, value: Any) -> bool:
        for bucket_index in self._hashes(key):
            bucket = self._buckets[bucket_index]
            for i, (stored_key, _old) in enumerate(bucket):
                if stored_key == key:
                    bucket[i] = (key, value)
                    return True
        return False

    def _insert_with_displacement(self, entry: Tuple[bytes, Any]) -> Optional[Tuple[bytes, Any]]:
        """Try to place ``entry``; return a displaced entry that could not be placed."""
        current = entry
        bucket_index = self._hashes(current[0])[0]
        for step in range(self.max_displacements):
            h1, h2 = self._hashes(current[0])
            for candidate in (h1, h2):
                bucket = self._buckets[candidate]
                if len(bucket) < self.slots_per_bucket:
                    bucket.append(current)
                    return None
            # Both buckets full: evict a victim from the alternate bucket and retry.
            bucket_index = h2 if bucket_index == h1 else h1
            victim_bucket = self._buckets[bucket_index]
            victim = victim_bucket.pop(step % self.slots_per_bucket)
            victim_bucket.append(current)
            current = victim
            self.displacements += 1
        return current

    def _grow(self) -> None:
        """Rehash every entry into twice the buckets."""
        self.resizes += 1
        old_entries = list(self.items())
        self._num_buckets *= 2
        self._buckets = [[] for _ in range(self._num_buckets)]
        self._size = 0
        for key, value in old_entries:
            self.put(key, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CuckooHashTable size={self._size} buckets={self._num_buckets} "
            f"load={self.load_factor():.2f}>"
        )
