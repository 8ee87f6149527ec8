"""Per-fingerprint replica-set routing, resolved through the partitioner.

The reference ``SHHCCluster._bucket_routed`` / ``route_batch`` (which go
through the epoch-keyed routing cache) are compared against, and the split
:mod:`oracles.cluster_reference` dispatches with.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.partition import Partitioner
from repro.core.protocol import BatchLookupRequest
from repro.dedup.fingerprint import Fingerprint


def split_batch_by_replica_set(
    fingerprints: Sequence[Fingerprint],
    partitioner: Partitioner,
    replication_factor: int = 1,
    is_down: Optional[Callable[[str], bool]] = None,
    client_id: str = "",
    batch_id: int = 0,
) -> Dict[str, Tuple[BatchLookupRequest, List[int]]]:
    """Split a client batch into per-*serving-node* requests.

    Each fingerprint is routed to the first live node of **its own** replica
    set (``partitioner.owners``), so a failed primary fails over per
    fingerprint rather than per batch; with every node up and
    ``replication_factor == 1`` that is simply its owner.  Grouping a whole
    batch under one failover target is wrong for consistent hashing, where
    successor sets differ per key.

    Returns ``node -> (request, original_positions)`` where
    ``original_positions[i]`` is the index in ``fingerprints`` of the i-th
    fingerprint in that node's request, so replies can be reassembled in the
    client's order.

    Parameters
    ----------
    replication_factor:
        Size of each fingerprint's replica set (primary plus successors).
    is_down:
        Liveness predicate ``node_name -> bool``; ``None`` means every node
        is up.  Raises :class:`RuntimeError` if a fingerprint has no live
        replica at all.
    """
    if replication_factor < 1:
        raise ValueError("replication_factor must be >= 1")
    groups: Dict[str, List[int]] = {}
    for position, fingerprint in enumerate(fingerprints):
        replicas = partitioner.owners(fingerprint, replication_factor)
        if is_down is not None:
            replicas = [node for node in replicas if not is_down(node)]
        if not replicas:
            raise RuntimeError(
                f"no live replica available for fingerprint at position {position}"
            )
        groups.setdefault(replicas[0], []).append(position)
    result: Dict[str, Tuple[BatchLookupRequest, List[int]]] = {}
    for node, positions in groups.items():
        request = BatchLookupRequest(
            fingerprints=[fingerprints[i] for i in positions],
            client_id=client_id,
            batch_id=batch_id,
        )
        result[node] = (request, positions)
    return result
