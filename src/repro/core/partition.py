"""Partitioning the fingerprint space across hash nodes.

SHHC distributes fingerprints over nodes "like the Chord system" but in a
structured, relatively static environment (§III.B): each node owns a range of
the hash space.  A partitioner states that once, as a **boundary table**:
sorted 8-byte boundaries plus one replica-set tuple per slot between them
(:meth:`Partitioner.routing_table`).  A digest's replica set is
``sets[bisect_right(bounds, digest)]``, and every other routing view --
:meth:`~Partitioner.owner`, :meth:`~Partitioner.owners`,
:meth:`~Partitioner.owners_by_key`, :meth:`~Partitioner.prefix_table`,
:meth:`~Partitioner.owner_indexes` -- is derived from that table.  Two
partitioners are provided:

* :class:`RangePartitioner` -- splits the fingerprint space into equal,
  contiguous ranges, one per node.  Because SHA-1 output is uniform, this
  yields the near-perfect 25 %/node balance of Figure 6.
* :class:`ConsistentHashRing` -- classic consistent hashing with virtual
  nodes.  Node joins/leaves move only the keys adjacent to the affected
  tokens, which is what the membership/scaling extension (future work in the
  paper, ablation C here) builds on.

A subclass states only its slots (:meth:`Partitioner._slots`) and keeps any
membership state of its own; the base class owns the node list, validation
and the per-replica-count table cache that :meth:`~Partitioner.add_node` /
:meth:`~Partitioner.remove_node` clear.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from ..dedup.fingerprint import Fingerprint
from ..storage.packing import DIGEST_BYTES

__all__ = ["Partitioner", "RangePartitioner", "ConsistentHashRing", "key_of_digest"]

#: Size of the partitioned key space: the top 64 bits of the SHA-1 digest.
KEY_SPACE_BITS = 64
KEY_SPACE_SIZE = 1 << KEY_SPACE_BITS

#: In :meth:`Partitioner.owner_indexes`' byte table: a first-byte prefix
#: that a boundary cuts through, so the byte alone names no owner.
_SPLIT_PREFIX = 0xFF

ReplicaSet = Tuple[str, ...]
#: ``(bounds, sets, prefix)``; see :meth:`Partitioner.routing_table`.
RoutingTable = Tuple[List[bytes], List[ReplicaSet], List[Optional[ReplicaSet]]]


def key_of_digest(digest: bytes) -> int:
    """Key-space position of a raw digest: its first eight bytes, big-endian.

    Identical to ``Fingerprint.prefix_int(KEY_SPACE_BITS)``.
    """
    return int.from_bytes(digest[:8], "big")


class Partitioner(ABC):
    """Maps fingerprints to owning nodes (and replica sets).

    Routing needs no key arithmetic: a raw 20-byte digest sorts against the
    8-byte boundaries exactly as its 64-bit key does -- a digest whose first
    eight bytes equal a boundary sorts after it, as ``bisect_right`` on the
    integer key does -- so a digest (or an 8-byte big-endian key) goes
    straight into ``bisect_right``.
    """

    def __init__(self, nodes: Sequence[str]) -> None:
        if not nodes:
            raise ValueError("at least one node is required")
        if len(set(nodes)) != len(nodes):
            raise ValueError("node names must be unique")
        self._nodes: List[str] = []
        # count -> routing table, and the owner_indexes byte table; both are
        # pure functions of membership and dropped on every change.
        self._tables: Dict[int, RoutingTable] = {}
        self._owner_bytes: Optional[bytes] = None
        for node in nodes:
            self.add_node(node)

    @abstractmethod
    def _slots(self, count: int) -> Tuple[List[int], List[ReplicaSet]]:
        """Sorted boundary keys and the ``len(bounds) + 1`` replica sets between them.

        Slot ``i`` holds the keys ``k`` with ``bounds[i - 1] <= k < bounds[i]``
        (open-ended at both ends); ``count`` is already clamped to the node
        count.
        """

    # -- membership --------------------------------------------------------------------
    def nodes(self) -> List[str]:
        """All node names currently in the partition map."""
        return list(self._nodes)

    def add_node(self, node: str) -> None:
        """Add a node to the partition map."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} already present")
        self._nodes.append(node)
        self._tables.clear()
        self._owner_bytes = None

    def remove_node(self, node: str) -> None:
        """Remove a node from the partition map."""
        if node not in self._nodes:
            raise KeyError(f"node {node!r} not present")
        if len(self._nodes) == 1:
            raise ValueError("cannot remove the last node")
        self._nodes.remove(node)
        self._tables.clear()
        self._owner_bytes = None

    # -- routing -----------------------------------------------------------------------
    def routing_table(self, count: int) -> RoutingTable:
        """``(bounds, sets, prefix)``: the one routing rule, for replica sets of ``count``.

        ``sets[bisect_right(bounds, digest)]`` is a digest's replica set;
        ``prefix[b]`` is the set every digest whose first byte is ``b``
        shares, or ``None`` where a boundary cuts that prefix.  Cached per
        ``count`` until the next membership change: callers treat it as
        immutable and fetch it once per batch, never across an
        ``add_node`` / ``remove_node``.
        """
        table = self._tables.get(count)
        if table is None:
            keys, sets = self._slots(min(count, len(self._nodes)))
            bounds = [key.to_bytes(8, "big") for key in keys]
            prefix: List[Optional[ReplicaSet]] = []
            for first in range(256):
                slot = bisect_right(bounds, bytes((first,)) + bytes(7))
                last = bisect_right(bounds, bytes((first,)) + b"\xff" * 7)
                prefix.append(sets[slot] if slot == last else None)
            table = self._tables[count] = (bounds, sets, prefix)
        return table

    def replicas(self, digest: bytes, count: int) -> ReplicaSet:
        """Replica set of a raw digest (or 8-byte big-endian key), as a shared tuple."""
        bounds, sets, _prefix = self.routing_table(count)
        return sets[bisect_right(bounds, digest)]

    def owner(self, fingerprint: Fingerprint) -> str:
        """Name of the node owning ``fingerprint``."""
        return self.replicas(fingerprint.digest, 1)[0]

    def owners(self, fingerprint: Fingerprint, count: int) -> List[str]:
        """The ``count`` distinct nodes responsible for ``fingerprint`` (at most all nodes)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return list(self.replicas(fingerprint.digest, count))

    def owners_by_key(self, key: int, count: int) -> ReplicaSet:
        """Replica set for a key-space position, as a shared tuple (``count`` >= 1)."""
        return self.replicas(key.to_bytes(8, "big"), count)

    def prefix_table(self, count: int) -> List[Optional[ReplicaSet]]:
        """256 entries: first digest byte -> replica set, ``None`` where a boundary cuts it."""
        return self.routing_table(count)[2]

    def owner_indexes(self, blob: bytes) -> bytes:
        """Owning node index of every packed 20-byte digest in ``blob``, one byte each.

        The batch form of :meth:`owner` for dispatchers that hold a batch as
        one buffer (the serving gateway): the digests' first bytes go
        through :meth:`prefix_table` in one ``bytes.translate``, and only
        digests on a prefix a boundary cuts through are bisected.  Indexes
        follow :meth:`nodes` order; needs fewer than 255 nodes.
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
            index_of = self._nodes.index
            owners = bytearray(owners)
            while position >= 0:
                start = position * DIGEST_BYTES
                owners[position] = index_of(self.replicas(blob[start:start + DIGEST_BYTES], 1)[0])
                position = owners.find(_SPLIT_PREFIX, position + 1)
            owners = bytes(owners)
        return owners

    def key_of(self, fingerprint: Fingerprint) -> int:
        """Expose the key-space position (useful for tests and migration)."""
        return fingerprint.prefix_int(KEY_SPACE_BITS)


class RangePartitioner(Partitioner):
    """Equal contiguous ranges of the 64-bit key space, one per node.

    Node *i* of *n* owns keys in ``[i * S/n, (i+1) * S/n)`` (the last node
    also the remainder); its replica set is the cycle of nodes starting at
    *i*.  Adding or removing a node recomputes the ranges (a full re-shard);
    use :class:`ConsistentHashRing` when incremental migration matters.
    """

    def _slots(self, count: int) -> Tuple[List[int], List[ReplicaSet]]:
        nodes = self._nodes
        n = len(nodes)
        width = KEY_SPACE_SIZE // n
        return (
            [index * width for index in range(1, n)],
            [tuple(nodes[(start + i) % n] for i in range(count)) for start in range(n)],
        )

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
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.virtual_nodes = virtual_nodes
        #: Sorted ``(token, node)`` pairs.
        self._ring: List[Tuple[int, str]] = []
        super().__init__(nodes)

    @staticmethod
    def _token(node: str, replica_index: int) -> int:
        digest = hashlib.sha1(f"{node}#{replica_index}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def add_node(self, node: str) -> None:
        super().add_node(node)
        self._ring = sorted(
            self._ring + [(self._token(node, index), node) for index in range(self.virtual_nodes)]
        )

    def remove_node(self, node: str) -> None:
        super().remove_node(node)
        self._ring = [(token, owner) for token, owner in self._ring if owner != node]

    def _slots(self, count: int) -> Tuple[List[int], List[ReplicaSet]]:
        # Slot i (keys below token i) belongs to token i; keys past the last
        # token wrap around to token 0.
        owners = [node for _token, node in self._ring]
        total = len(owners)
        doubled = owners * 2
        sets: List[ReplicaSet] = []
        for start in range(total):
            walk: List[str] = []
            for node in islice(doubled, start, start + total):
                if node not in walk:
                    walk.append(node)
                    if len(walk) == count:
                        break
            sets.append(tuple(walk))
        return [token for token, _node in self._ring], sets + sets[:1]

    # -- diagnostics -----------------------------------------------------------------------
    def token_count(self, node: str) -> int:
        """Number of tokens ``node`` currently places on the ring."""
        return sum(1 for _token, owner in self._ring if owner == node)

    def ownership_fractions(self) -> Dict[str, float]:
        """Fraction of the key space owned by each node, exactly from arc lengths."""
        arcs: Dict[str, int] = {node: 0 for node in self._nodes}
        ring = self._ring
        for i, (token, _node) in enumerate(ring):
            next_token = ring[(i + 1) % len(ring)][0]
            owner = ring[(i + 1) % len(ring)][1]
            arc = (next_token - token) % KEY_SPACE_SIZE
            arcs[owner] += arc
        total = sum(arcs.values()) or 1
        return {node: arc / total for node, arc in arcs.items()}
