"""Dict-and-set model of the hybrid hash node's answers.

The paper's Figure-4 flow decides each lookup from two facts only: is the
digest in the RAM LRU, and has it ever been stored.  The bloom filter never
changes an answer -- a negative is a shortcut to "new", a false positive
costs an SSD probe that then also says "new" -- so a dict (the table), an
ordered dict (the LRU) and three counters predict every tier code, the new
pairs and the per-tier counts exactly, for any LRU capacity.  What the
model does *not* predict is cost (service times, page counts): those are
pinned against the per-fingerprint flow in ``oracles.node_reference``
instead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Sequence, Set, Tuple

#: Tier codes, as emitted by ``HybridHashNode.serve_bucket_verdicts``.
NEW, RAM, SSD = 0, 1, 2


class NodeModel:
    """What one node must answer for a stream of ``(digest, chunk_size)``."""

    def __init__(self, lru_capacity: int) -> None:
        if lru_capacity < 1:
            raise ValueError("the node's LRU holds at least one entry")
        self.lru_capacity = lru_capacity
        self.stored: Dict[bytes, int] = {}
        self.lru: "OrderedDict[bytes, bool]" = OrderedDict()
        self.lookups = 0
        self.tier_counts = {NEW: 0, RAM: 0, SSD: 0}
        self.destages = 0

    def _cache(self, digest: bytes) -> None:
        self.lru[digest] = True
        if len(self.lru) > self.lru_capacity:
            self.lru.popitem(last=False)
            self.destages += 1

    def serve(
        self, pairs: Iterable[Tuple[bytes, int]]
    ) -> Tuple[List[int], List[Tuple[bytes, int]]]:
        """``(tiers, new_pairs)`` for one batch, in input order."""
        tiers: List[int] = []
        new_pairs: List[Tuple[bytes, int]] = []
        for digest, chunk_size in pairs:
            self.lookups += 1
            if digest in self.lru:
                self.lru.move_to_end(digest)
                tier = RAM
            elif digest in self.stored:
                self._cache(digest)
                tier = SSD
            else:
                self.stored[digest] = chunk_size
                self._cache(digest)
                new_pairs.append((digest, chunk_size))
                tier = NEW
            self.tier_counts[tier] += 1
            tiers.append(tier)
        return tiers, new_pairs

    def expected_counters(self) -> Dict[str, int]:
        """The node counters the model determines (zero counts omitted)."""
        counters = {
            "lookups": self.lookups,
            "ram_hits": self.tier_counts[RAM],
            "ssd_hits": self.tier_counts[SSD],
            "new_entries": self.tier_counts[NEW],
            "destages": self.destages,
        }
        return {name: value for name, value in counters.items() if value}


def set_verdicts(digests: Sequence[bytes], seen: Set[bytes]) -> List[bool]:
    """Duplicate verdicts of a lossless index: duplicate <=> seen before.

    ``seen`` is updated in place, so consecutive batches chain.  This is
    the whole-cluster model: routing, replication and tiering must never
    change a verdict while no acknowledged fingerprint has been lost.
    """
    verdicts = []
    for digest in digests:
        verdicts.append(digest in seen)
        seen.add(digest)
    return verdicts
