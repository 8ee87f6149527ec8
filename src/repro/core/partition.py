"""Partitioning the fingerprint space across hash nodes.

SHHC distributes fingerprints over nodes "like the Chord system" but in a
structured, relatively static environment (§III.B): each node owns a range of
the hash space.  Two partitioners are provided:

* :class:`RangePartitioner` -- splits the fingerprint space into equal,
  contiguous ranges, one (or more) per node.  Because SHA-1 output is
  uniform, this yields the near-perfect 25 %/node balance of Figure 6.
* :class:`ConsistentHashRing` -- classic consistent hashing with virtual
  nodes.  Node joins/leaves move only the keys adjacent to the affected
  tokens, which is what the membership/scaling extension (future work in the
  paper, ablation C here) builds on.

Both expose the same interface: :meth:`owner`, :meth:`owners` (for
replication), :meth:`add_node`, :meth:`remove_node`, :meth:`nodes`.
"""

from __future__ import annotations

import bisect
import hashlib
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

from ..dedup.fingerprint import Fingerprint
from ..storage.packing import DIGEST_BYTES

__all__ = ["Partitioner", "RangePartitioner", "ConsistentHashRing", "key_of_digest"]

#: Size of the partitioned key space: the top 64 bits of the SHA-1 digest.
KEY_SPACE_BITS = 64
KEY_SPACE_SIZE = 1 << KEY_SPACE_BITS


#: In :meth:`RangePartitioner.owner_indexes`' byte table: a first-byte prefix
#: that a range boundary cuts through, so the byte alone names no owner.
_SPLIT_PREFIX = 0xFF


def _key_of(fingerprint: Fingerprint) -> int:
    """Map a fingerprint to its position in the partitioned key space."""
    return fingerprint.prefix_int(KEY_SPACE_BITS)


def key_of_digest(digest: bytes) -> int:
    """Key-space position straight from a raw digest (hot-path variant).

    Identical to ``Fingerprint.prefix_int(KEY_SPACE_BITS)``: the top 64
    bits of a (>= 8 byte) digest are its first eight bytes.
    """
    return int.from_bytes(digest[:8], "big")


class Partitioner(ABC):
    """Maps fingerprints to owning nodes (and replica sets).

    Every partitioner carries a **membership epoch**: a counter bumped by
    each :meth:`add_node`/:meth:`remove_node`.  Routing caches (the
    cluster's digest -> replica-set cache) key their validity on it, so a
    membership change -- elastic scaling, chaos-test churn -- invalidates
    stale routes without the partitioner knowing who caches what.
    """

    #: Class-level default so subclasses need not call ``__init__``; the
    #: first bump creates the instance attribute.
    _epoch: int = 0

    @property
    def epoch(self) -> int:
        """Membership epoch; changes whenever the node set changes."""
        return self._epoch

    def bump_epoch(self) -> None:
        """Invalidate routing caches (called on every membership change)."""
        self._epoch = self._epoch + 1

    @abstractmethod
    def owner(self, fingerprint: Fingerprint) -> str:
        """Name of the node owning ``fingerprint``."""

    @abstractmethod
    def owners(self, fingerprint: Fingerprint, count: int) -> List[str]:
        """The ``count`` distinct nodes responsible for ``fingerprint``."""

    @abstractmethod
    def nodes(self) -> List[str]:
        """All node names currently in the partition map."""

    @abstractmethod
    def add_node(self, node: str) -> None:
        """Add a node to the partition map."""

    @abstractmethod
    def remove_node(self, node: str) -> None:
        """Remove a node from the partition map."""

    def key_of(self, fingerprint: Fingerprint) -> int:
        """Expose the key-space position (useful for tests and migration)."""
        return _key_of(fingerprint)


class RangePartitioner(Partitioner):
    """Equal contiguous ranges of the 64-bit key space, one per node.

    Node *i* of *n* owns keys in ``[i * S/n, (i+1) * S/n)``.  Adding or
    removing a node recomputes the ranges (a full re-shard); use
    :class:`ConsistentHashRing` when incremental migration matters.
    """

    def __init__(self, nodes: Sequence[str]) -> None:
        if not nodes:
            raise ValueError("at least one node is required")
        if len(set(nodes)) != len(nodes):
            raise ValueError("node names must be unique")
        self._nodes: List[str] = list(nodes)
        # count -> [replica cycle starting at node index]; replica sets are
        # a pure function of the owner index, so they are computed once per
        # (count, membership) and handed out as copies.
        self._cycles: Dict[int, List[Tuple[str, ...]]] = {}
        self._prefix_tables: Dict[int, List[Optional[Tuple[str, ...]]]] = {}
        self._owner_bytes: Optional[bytes] = None

    def nodes(self) -> List[str]:
        return list(self._nodes)

    def owner(self, fingerprint: Fingerprint) -> str:
        index = self.index_of(fingerprint)
        return self._nodes[index]

    def index_of(self, fingerprint: Fingerprint) -> int:
        """Index of the owning node in the node list."""
        key = _key_of(fingerprint)
        width = KEY_SPACE_SIZE // len(self._nodes)
        index = min(key // width, len(self._nodes) - 1)
        return index

    def owners(self, fingerprint: Fingerprint, count: int) -> List[str]:
        if count < 1:
            raise ValueError("count must be >= 1")
        return list(self.owners_by_key(_key_of(fingerprint), count))

    def owners_by_key(self, key: int, count: int) -> Tuple[str, ...]:
        """Replica set for a key-space position, as a shared tuple.

        Hot-path variant of :meth:`owners` (``count`` is assumed already
        validated >= 1): the cycle tuples are cached per membership, so
        callers must treat the result as immutable.
        """
        cycles, width, last = self.route_table(count)
        index = key // width
        return cycles[index if index < last else last]

    def route_table(self, count: int) -> Tuple[List[Tuple[str, ...]], int, int]:
        """Routing table ``(cycles, range_width, last_index)`` for ``count``.

        Lets a batch dispatcher resolve cache misses inline --
        ``cycles[min(key // range_width, last_index)]`` -- without a method
        call per key.  The table is only valid for the current membership;
        refetch after any epoch bump.
        """
        nodes = self._nodes
        count = min(count, len(nodes))
        cycles = self._cycles.get(count)
        if cycles is None:
            n = len(nodes)
            cycles = [
                tuple(nodes[(start + i) % n] for i in range(count))
                for start in range(n)
            ]
            self._cycles[count] = cycles
        return cycles, KEY_SPACE_SIZE // len(nodes), len(nodes) - 1

    def prefix_table(self, count: int) -> List[Optional[Tuple[str, ...]]]:
        """256-entry table: first digest byte -> replica set, or ``None``.

        Entry ``b`` holds the shared replica-set tuple when *every* key
        whose top 8 bits equal ``b`` falls in the same node range --
        true for all but the at-most ``len(nodes) - 1`` prefixes a range
        boundary cuts through, which stay ``None`` and must be resolved
        exactly (:meth:`owners_by_key`).  Lets a dispatcher route a
        digest with two index operations and no per-key arithmetic.
        Cached per ``(count, membership)``; membership changes rebuild it.
        """
        cached = self._prefix_tables.get(count)
        if cached is None:
            cycles, width, last = self.route_table(count)
            shift = KEY_SPACE_BITS - 8
            cached = []
            for prefix in range(256):
                low = prefix << shift
                first = low // width
                if first > last:
                    first = last
                final = ((low + (1 << shift)) - 1) // width
                if final > last:
                    final = last
                cached.append(cycles[first] if first == final else None)
            self._prefix_tables[count] = cached
        return cached

    def owner_indexes(self, blob: bytes) -> bytes:
        """Owning node index of every packed 20-byte digest in ``blob``, one byte each.

        The batch form of ``owners_by_key(key, 1)`` for dispatchers that
        hold a batch as one buffer (the serving gateway): the digests'
        first bytes go through :meth:`prefix_table` in one
        ``bytes.translate``, and only digests on a prefix a range boundary
        cuts through are resolved from their full key.  Indexes follow
        :meth:`nodes` order; needs fewer than 255 nodes.
        """
        table = self._owner_bytes
        if table is None:
            if len(self._nodes) >= _SPLIT_PREFIX:
                raise ValueError(f"owner_indexes needs fewer than {_SPLIT_PREFIX} nodes")
            index_of = {node: index for index, node in enumerate(self._nodes)}
            table = self._owner_bytes = bytes(
                _SPLIT_PREFIX if owners is None else index_of[owners[0]]
                for owners in self.prefix_table(1)
            )
        owners = blob[::DIGEST_BYTES].translate(table)
        position = owners.find(_SPLIT_PREFIX)
        if position >= 0:
            _cycles, width, last = self.route_table(1)
            owners = bytearray(owners)
            while position >= 0:
                start = position * DIGEST_BYTES
                owners[position] = min(key_of_digest(blob[start:start + 8]) // width, last)
                position = owners.find(_SPLIT_PREFIX, position + 1)
            owners = bytes(owners)
        return owners

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already present")
        self._nodes.append(node)
        self._cycles.clear()
        self._prefix_tables.clear()
        self._owner_bytes = None
        self.bump_epoch()

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise KeyError(f"node {node!r} not present")
        if len(self._nodes) == 1:
            raise ValueError("cannot remove the last node")
        self._nodes.remove(node)
        self._cycles.clear()
        self._prefix_tables.clear()
        self._owner_bytes = None
        self.bump_epoch()

    def range_of(self, node: str) -> Tuple[int, int]:
        """Half-open key range ``[low, high)`` owned by ``node``."""
        if node not in self._nodes:
            raise KeyError(f"node {node!r} not present")
        index = self._nodes.index(node)
        width = KEY_SPACE_SIZE // len(self._nodes)
        low = index * width
        high = KEY_SPACE_SIZE if index == len(self._nodes) - 1 else (index + 1) * width
        return low, high


class ConsistentHashRing(Partitioner):
    """Consistent hashing with virtual nodes (tokens) on a 64-bit ring.

    Each physical node contributes ``virtual_nodes`` tokens; a fingerprint is
    owned by the first token clockwise from its key.  Replica sets are the
    next distinct physical nodes clockwise, Chord-successor style.
    """

    def __init__(self, nodes: Sequence[str], virtual_nodes: int = 64) -> None:
        if not nodes:
            raise ValueError("at least one node is required")
        if len(set(nodes)) != len(nodes):
            raise ValueError("node names must be unique")
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.virtual_nodes = virtual_nodes
        self._ring: List[Tuple[int, str]] = []
        self._tokens: List[int] = []
        self._members: List[str] = []
        # count -> {ring position -> successor tuple}; the distinct-node
        # walk from a given ring position is membership-pure, so each
        # position is walked once per count (filled lazily, dropped on
        # every rebuild).
        self._successors: Dict[int, Dict[int, Tuple[str, ...]]] = {}
        for node in nodes:
            self.add_node(node)

    # -- token placement ---------------------------------------------------------------
    @staticmethod
    def _token(node: str, replica_index: int) -> int:
        digest = hashlib.sha1(f"{node}#{replica_index}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def _rebuild(self) -> None:
        self._ring.sort()
        self._tokens = [token for token, _node in self._ring]
        self._successors.clear()

    # -- partitioner interface ---------------------------------------------------------
    def nodes(self) -> List[str]:
        return list(self._members)

    def add_node(self, node: str) -> None:
        if node in self._members:
            raise ValueError(f"node {node!r} already present")
        self._members.append(node)
        for replica_index in range(self.virtual_nodes):
            self._ring.append((self._token(node, replica_index), node))
        self._rebuild()
        self.bump_epoch()

    def remove_node(self, node: str) -> None:
        if node not in self._members:
            raise KeyError(f"node {node!r} not present")
        if len(self._members) == 1:
            raise ValueError("cannot remove the last node")
        self._members.remove(node)
        self._ring = [(token, owner) for token, owner in self._ring if owner != node]
        self._rebuild()
        self.bump_epoch()

    def owner(self, fingerprint: Fingerprint) -> str:
        return self._owner_of_key(_key_of(fingerprint))

    def _owner_of_key(self, key: int) -> str:
        index = bisect.bisect_right(self._tokens, key)
        if index == len(self._tokens):
            index = 0
        return self._ring[index][1]

    def owners(self, fingerprint: Fingerprint, count: int) -> List[str]:
        if count < 1:
            raise ValueError("count must be >= 1")
        return list(self.owners_by_key(_key_of(fingerprint), count))

    def owners_by_key(self, key: int, count: int) -> Tuple[str, ...]:
        """Replica set for a key-space position, as a shared tuple.

        Hot-path variant of :meth:`owners` (``count`` is assumed already
        validated >= 1): successor walks are cached per ring position and
        membership, so callers must treat the result as immutable.
        """
        count = min(count, len(self._members))
        index = bisect.bisect_right(self._tokens, key) % len(self._ring)
        per_count = self._successors.get(count)
        if per_count is None:
            self._successors[count] = per_count = {}
        cached = per_count.get(index)
        if cached is None:
            owners: List[str] = []
            seen = set()
            for step in range(len(self._ring)):
                token_index = (index + step) % len(self._ring)
                node = self._ring[token_index][1]
                if node not in seen:
                    seen.add(node)
                    owners.append(node)
                    if len(owners) == count:
                        break
            per_count[index] = cached = tuple(owners)
        return cached

    # -- diagnostics -----------------------------------------------------------------------
    def token_count(self, node: str) -> int:
        """Number of tokens ``node`` currently places on the ring."""
        return sum(1 for _token, owner in self._ring if owner == node)

    def ownership_fractions(self, sample_keys: int = 100_000) -> Dict[str, float]:
        """Approximate fraction of the key space owned by each node.

        Computed exactly from arc lengths rather than by sampling; the
        ``sample_keys`` parameter is kept for API familiarity but unused.
        """
        del sample_keys
        arcs: Dict[str, int] = {node: 0 for node in self._members}
        ring = self._ring
        for i, (token, _node) in enumerate(ring):
            next_token = ring[(i + 1) % len(ring)][0]
            owner = ring[(i + 1) % len(ring)][1]
            arc = (next_token - token) % KEY_SPACE_SIZE
            arcs[owner] += arc
        total = sum(arcs.values()) or 1
        return {node: arc / total for node, arc in arcs.items()}
