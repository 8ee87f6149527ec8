"""The partitioners' routing as integer arithmetic, before the boundary table.

``RangePartitioner`` used to route a key by division (``min(key // width,
n - 1)`` picks the owner, whose replica set is the node cycle starting
there) and ``ConsistentHashRing`` by an integer bisect over its sorted
tokens followed by a successor walk over the ring.  Both now read one
boundary table (``Partitioner.routing_table``); these models keep the old
arithmetic, with their own membership and token placement, so
``tests/test_partition_differential.py`` can hold every routing view of the
table to it.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Tuple

KEY_SPACE_SIZE = 1 << 64


class ReferenceRange:
    """Equal contiguous ranges: node ``i`` of ``n`` owns ``[i * w, (i + 1) * w)``."""

    def __init__(self, nodes) -> None:
        self.nodes: List[str] = list(nodes)

    def add_node(self, node: str) -> None:
        self.nodes.append(node)

    def remove_node(self, node: str) -> None:
        self.nodes.remove(node)

    def width(self) -> int:
        return KEY_SPACE_SIZE // len(self.nodes)

    def boundaries(self) -> List[int]:
        return [index * self.width() for index in range(1, len(self.nodes))]

    def owners_by_key(self, key: int, count: int) -> Tuple[str, ...]:
        nodes = self.nodes
        n = len(nodes)
        index = min(key // self.width(), n - 1)
        return tuple(nodes[(index + i) % n] for i in range(min(count, n)))


class ReferenceRing:
    """Consistent hashing: the first token clockwise, then distinct successors."""

    def __init__(self, nodes, virtual_nodes: int) -> None:
        self.virtual_nodes = virtual_nodes
        self.nodes: List[str] = []
        self.ring: List[Tuple[int, str]] = []
        for node in nodes:
            self.add_node(node)

    @staticmethod
    def token(node: str, replica_index: int) -> int:
        digest = hashlib.sha1(f"{node}#{replica_index}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def add_node(self, node: str) -> None:
        self.nodes.append(node)
        self.ring.extend((self.token(node, index), node) for index in range(self.virtual_nodes))
        self.ring.sort()
        self.tokens = [token for token, _node in self.ring]

    def remove_node(self, node: str) -> None:
        self.nodes.remove(node)
        self.ring = [(token, owner) for token, owner in self.ring if owner != node]
        self.tokens = [token for token, _node in self.ring]

    def boundaries(self) -> List[int]:
        return list(self.tokens)

    def owners_by_key(self, key: int, count: int) -> Tuple[str, ...]:
        count = min(count, len(self.nodes))
        index = bisect.bisect_right(self.tokens, key) % len(self.ring)
        owners: List[str] = []
        for step in range(len(self.ring)):
            node = self.ring[(index + step) % len(self.ring)][1]
            if node not in owners:
                owners.append(node)
                if len(owners) == count:
                    break
        return tuple(owners)
