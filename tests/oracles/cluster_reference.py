"""The pre-cache cluster batch path, kept verbatim as an oracle.

Resolves every fingerprint's replica set through the partitioner
(:func:`oracles.batch_routing.split_batch_by_replica_set`), serves each
sub-batch with the node's reply view and applies replication semantics one
reply at a time (``SHHCCluster._resolve_reply``).  The routed core
(``SHHCCluster._serve_routed``) must stay verdict-, tier-, service-time-,
counter- and replica-write-identical to this; the equivalence tests build
twin clusters and drive one through each.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.cluster import SHHCCluster
from repro.core.fault_injection import NodeUnavailableError
from repro.core.protocol import LookupReply
from repro.dedup.fingerprint import Fingerprint

from .batch_routing import split_batch_by_replica_set
from .event_path import ReplyBatch, reassemble_replies


def lookup_batch_replies_reference(
    cluster: SHHCCluster, fingerprints: Sequence[Fingerprint]
) -> List[LookupReply]:
    fingerprints = list(fingerprints)
    if not fingerprints:
        return []
    batch_id = next(cluster._batch_ids)
    cluster.last_batch_id = batch_id
    per_node = split_batch_by_replica_set(
        fingerprints,
        cluster.partitioner,
        cluster.config.replication_factor,
        is_down=cluster.is_down,
        batch_id=batch_id,
    )
    gathered = []
    for serving, (request, positions) in per_node.items():
        batch = list(request.fingerprints)
        try:
            raw_replies = cluster.nodes[serving].lookup_batch(batch)
        except NodeUnavailableError:
            # The whole sub-batch was refused (flaky node): retry each
            # fingerprint individually on its remaining replicas.
            cluster.failovers += 1
            replies = [cluster._lookup_with_failover(fp, exclude=(serving,)) for fp in batch]
        else:
            replies = [cluster._resolve_reply(reply, serving) for reply in raw_replies]
        gathered.append(
            (ReplyBatch(replies=replies, node_id=serving, batch_id=batch_id), positions)
        )
    return reassemble_replies(len(fingerprints), gathered)
