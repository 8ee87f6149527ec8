"""LRU cache used as the RAM tier of a hybrid hash node.

The paper's node keeps a least-recently-used list of fingerprints in RAM
(Figure 4): hits move the entry to the MRU end; when the cache is full the
LRU tail is destaged.  This implementation is an ``OrderedDict``-backed map
with hit/miss/eviction accounting; :meth:`LRUCache.put` returns the entry it
evicted, which is how the node counts destages.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterator, Optional, Tuple

__all__ = ["LRUCache"]


class LRUCache:
    """A bounded map with least-recently-used eviction.

    Parameters
    ----------
    capacity:
        Maximum number of entries; must be at least 1.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0

    # -- core operations --------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``; a hit refreshes its recency."""
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        return default

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key`` without affecting recency or hit/miss counters."""
        return self._entries.get(key, default)

    def put(self, key: Hashable, value: Any = True) -> Optional[Tuple[Hashable, Any]]:
        """Insert or refresh ``key``.  Returns the evicted ``(key, value)`` if any."""
        evicted: Optional[Tuple[Hashable, Any]] = None
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
        else:
            self.insertions += 1
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                evicted = self._entries.popitem(last=False)
                self.evictions += 1
        return evicted

    def remove(self, key: Hashable) -> bool:
        """Delete ``key`` if present; returns whether it was there."""
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def clear(self) -> None:
        """Drop every entry (not counted as evictions)."""
        self._entries.clear()

    # -- inspection --------------------------------------------------------------
    @property
    def data(self) -> "OrderedDict[Hashable, Any]":
        """The backing ordered dict (hot-loop escape hatch).

        Callers probing it directly must uphold the LRU contract
        themselves: a hit must ``move_to_end`` and hits/misses must be
        settled on the cache afterwards (see the hash node's batch loop).
        The object is stable for the cache's lifetime -- it is mutated in
        place, never replaced -- so binding it once per batch is safe.
        """
        return self._entries

    def __contains__(self, key: Hashable) -> bool:
        """Membership test *without* touching recency or counters."""
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Hashable]:
        """Iterate keys from least to most recently used."""
        return iter(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def lru_key(self) -> Optional[Hashable]:
        """The key that would be evicted next (``None`` if empty)."""
        return next(iter(self._entries), None)

    def mru_key(self) -> Optional[Hashable]:
        """The most recently used key (``None`` if empty)."""
        return next(reversed(self._entries), None)

    def hit_ratio(self) -> float:
        """Hits divided by total lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counter snapshot for reporting."""
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "insertions": self.insertions,
            "hit_ratio": self.hit_ratio(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LRUCache size={len(self._entries)}/{self.capacity} hit_ratio={self.hit_ratio():.3f}>"
