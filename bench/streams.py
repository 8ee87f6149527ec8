"""Seeded identity streams, their digests, and the set-based model.

The program under test receives only digests.  Identities are handed out in
increasing order, so "never offered before" is simply ``identity == known``
at generation time: the model needs no per-digest set, and the expected
number of new fingerprints in any group of batches is exact and independent
of the order the service happened to process them in.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Tuple

__all__ = ["Batch", "DigestTable", "IdentityStream"]


class DigestTable:
    """``sha1(identity.to_bytes(16, "big"))`` per identity, computed once.

    Same mapping as ``repro.dedup.fingerprint.synthetic_fingerprint``; the
    table only ever grows at its end because identities are sequential.
    """

    def __init__(self) -> None:
        self.hex: List[str] = []

    def extend_to(self, count: int) -> None:
        hexes = self.hex
        sha1 = hashlib.sha1
        for identity in range(len(hexes), count):
            hexes.append(sha1(identity.to_bytes(16, "big")).hexdigest())

    def blob(self, identities: List[int]) -> str:
        """The wire form of a batch: concatenated 40-char hex digests."""
        return "".join(map(self.hex.__getitem__, identities))


class Batch:
    """One generated batch and what the model expects of its reply."""

    __slots__ = ("seq", "identities", "first_new", "known_after")

    def __init__(self, seq: int, identities: List[int], first_new: int,
                 known_after: int) -> None:
        self.seq = seq
        self.identities = identities
        #: Smallest identity this batch introduces (== ``known`` before it).
        self.first_new = first_new
        self.known_after = known_after

    @property
    def new_count(self) -> int:
        """Identities of this batch never offered before."""
        return self.known_after - self.first_new

    def must_be_duplicate_mask(self, acked_below: int) -> int:
        """Bit *i* set when identity *i* was first offered in a batch already
        acknowledged (every identity below ``acked_below``)."""
        mask = 0
        bit = 1
        for identity in self.identities:
            if identity < acked_below:
                mask |= bit
            bit <<= 1
        return mask


class IdentityStream:
    """``random.Random(seed)`` stream: a fraction redraws uniformly from
    everything known so far, the rest are new identities."""

    def __init__(self, seed: int, dup_fraction: float, batch_size: int,
                 known: int = 0) -> None:
        self._random = random.Random(seed).random
        self.dup_fraction = dup_fraction
        self.batch_size = batch_size
        #: Identities ``[0, known)`` have been offered (pre-population first).
        self.known = known
        self.batches = 0

    def next_batch(self) -> Batch:
        rnd = self._random
        dup_fraction = self.dup_fraction
        first_new = known = self.known
        identities: List[int] = []
        append = identities.append
        for _ in range(self.batch_size):
            if known and rnd() < dup_fraction:
                append(int(rnd() * known))
            else:
                append(known)
                known += 1
        self.known = known
        seq = self.batches
        self.batches = seq + 1
        return Batch(seq, identities, first_new, known)


def prepopulation_batches(count: int, batch_size: int = 2048) -> List[Tuple[int, int]]:
    """``[lo, hi)`` identity ranges that offer ``[0, count)`` once each."""
    return [(lo, min(lo + batch_size, count)) for lo in range(0, count, batch_size)]
