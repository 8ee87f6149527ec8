"""Closed-form model of the bloom filter's bits, independent of its walk.

``BloomFilter`` visits a key's probe sequence incrementally (add the step,
subtract ``num_bits`` on wrap).  This model computes the same sequence the
textbook way -- ``(h1 + i * (h2 | 1)) % num_bits`` -- over a plain ``set``
of bit indexes, and derives ``h1``/``h2`` itself: bytes ``[0:8)`` / ``[8:16)``
of the 20-byte digest key.  It shares no code with ``repro.storage.bloom``.
"""

from __future__ import annotations

from typing import Iterable, List, Set


class BloomModel:
    def __init__(self, num_bits: int, num_hashes: int) -> None:
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.set_bits: Set[int] = set()
        self.count = 0

    def indexes(self, key) -> List[int]:
        """The bit indexes ``key`` probes, in order."""
        assert len(key) == 20, key
        h1 = int.from_bytes(key[0:8], "big")
        h2 = int.from_bytes(key[8:16], "big") | 1
        return [(h1 + i * h2) % self.num_bits for i in range(self.num_hashes)]

    def add_many(self, keys: Iterable) -> None:
        for key in keys:
            self.set_bits.update(self.indexes(key))
            self.count += 1

    def contains_many(self, keys: Iterable) -> List[bool]:
        return [self.set_bits.issuperset(self.indexes(key)) for key in keys]

    def bits(self) -> bytes:
        """The bit vector as ``BloomFilter.raw_bits()`` lays it out (LSB first)."""
        vector = bytearray((self.num_bits + 7) // 8)
        for index in self.set_bits:
            vector[index >> 3] |= 1 << (index & 7)
        return bytes(vector)
