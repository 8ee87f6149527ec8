"""The cluster's per-reply replication paths, kept verbatim as an oracle.

``SHHCCluster`` writes replicas one way: ``_propagate_new_groups`` groups a
served bucket's new ``(digest, chunk_size)`` pairs per destination and
writes each group with one store call.  Before that, every reply went
through :func:`resolve_reply` -- consult the other live replicas,
read-repair when one holds the fingerprint, otherwise copy it to each with
the per-key ``oracles.node_reference.insert_replica`` -- and that flow is
kept here:

* :func:`lookup_reply_reference` -- ``SHHCCluster.lookup_reply`` as a
  per-key failover loop (retry the live replica with the fewest refusals
  of *this key*, then :func:`resolve_reply`);
* :func:`lookup_batch_replies_reference` -- the pre-cache batch path:
  every fingerprint's replica set resolved through the partitioner
  (:func:`oracles.batch_routing.split_batch_by_replica_set`), each
  sub-batch served with the node's reply view, replies resolved one at a
  time, and a refused sub-batch retried key by key through
  :func:`lookup_reply_reference`;
* :func:`reference_handler` -- ``SHHCCluster._make_handler`` as it was:
  :func:`resolve_reply` on every new verdict of an RPC-served batch;
* :class:`PerReplyCluster` -- the cluster with ``lookup_reply`` and the RPC
  handler swapped for those.

Verdicts, tiers, stores and read repairs of the tree's paths must equal
these; the equivalence tests build twin clusters and drive one through
each.  None of these charges a served lookup to a cost model's ledger.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from repro.core.cluster import SHHCCluster
from repro.core.fault_injection import NodeUnavailableError
from repro.core.protocol import SERVED_FROM_TIER, BatchLookupReply, LookupReply, ServedFrom
from repro.dedup.fingerprint import Fingerprint

from .batch_routing import split_batch_by_replica_set
from .node_reference import insert_replica

_REPAIR_TIER = SERVED_FROM_TIER.index(ServedFrom.REPAIR)


def resolve_reply(cluster: SHHCCluster, reply: LookupReply, serving: str) -> LookupReply:
    """Apply replication semantics to a serving node's verdict.

    Duplicates stand as-is.  For a reported-new fingerprint the other
    live replicas are consulted: if any already holds it the verdict is
    corrected to duplicate (read repair -- the serving node keeps the
    copy it just wrote, becoming consistent again) and missing replicas
    are backfilled; otherwise the new fingerprint is propagated to every
    other live replica via the stats-neutral ``insert_replica`` path.
    """
    if reply.is_duplicate or cluster.config.replication_factor == 1:
        return reply
    fingerprint = reply.fingerprint
    others = [
        n for n in cluster.replica_set(fingerprint) if n != serving and n not in cluster._down
    ]
    holders = [n for n in others if fingerprint in cluster.nodes[n]]
    targets = [n for n in others if n not in holders]
    for node_name in targets:
        insert_replica(cluster.nodes[node_name], fingerprint)
    if targets and cluster.ledger is not None:
        cluster.ledger.charge_replica_writes({name: 1 for name in targets})
    if holders:
        cluster.read_repairs += 1
        return replace(reply, is_duplicate=True, served_from=ServedFrom.REPAIR)
    return reply


def lookup_reply_reference(
    cluster: SHHCCluster, fingerprint: Fingerprint, exclude: Tuple[str, ...] = ()
) -> LookupReply:
    """Serve one fingerprint from its replica set, retrying flaky nodes.

    Marked-down nodes are skipped outright.  A node that raises
    :class:`NodeUnavailableError` mid-request is a *transient* failure:
    the lookup moves to the least-recently-failed live replica first but
    may come back and retry the same node (up to ``MAX_NODE_ATTEMPTS``
    times each), so a single dropped request never aborts a run that
    still has a responsive replica.  ``exclude`` pre-charges one failed
    attempt (used when a whole sub-batch was refused).
    """
    attempts = {name: 1 for name in exclude}
    while True:
        live = [n for n in cluster.replica_set(fingerprint) if not cluster.is_down(n)]
        candidates = [n for n in live if attempts.get(n, 0) < cluster.MAX_NODE_ATTEMPTS]
        if not candidates:
            raise RuntimeError(
                "no live replica available for fingerprint "
                f"(every replica refused {cluster.MAX_NODE_ATTEMPTS} attempts)"
            )
        # Stable sort: fewest failures first, replica-set order on ties.
        candidates.sort(key=lambda name: attempts.get(name, 0))
        serving = candidates[0]
        try:
            reply = cluster.nodes[serving].lookup(fingerprint)
        except NodeUnavailableError:
            attempts[serving] = attempts.get(serving, 0) + 1
            cluster.failovers += 1
            continue
        return resolve_reply(cluster, reply, serving)


def lookup_batch_replies_reference(
    cluster: SHHCCluster, fingerprints: Sequence[Fingerprint]
) -> List[LookupReply]:
    from .event_path import ReplyBatch, reassemble_replies

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
            replies = [lookup_reply_reference(cluster, fp, exclude=(serving,)) for fp in batch]
        else:
            replies = [resolve_reply(cluster, reply, serving) for reply in raw_replies]
        gathered.append(
            (ReplyBatch(replies=replies, node_id=serving, batch_id=batch_id), positions)
        )
    return reassemble_replies(len(fingerprints), gathered)


def reference_handler(cluster: SHHCCluster, node):
    """An RPC handler for ``node`` that resolves each new verdict per reply."""
    node_id = node.node_id

    def _handle(request, respond) -> None:
        def _finalize(reply: BatchLookupReply) -> None:
            if cluster.config.replication_factor > 1:
                tiers, service_times = reply.tiers, reply.service_times
                for index, fingerprint in enumerate(reply.fingerprints):
                    if not tiers[index] and resolve_reply(
                        cluster,
                        LookupReply(fingerprint, False, ServedFrom.NEW, node_id,
                                    service_times[index]),
                        node_id,
                    ).is_duplicate:
                        tiers[index] = _REPAIR_TIER
            respond(reply, reply.payload_bytes)

        node.serve_batch(request, _finalize)

    return _handle


class PerReplyCluster(SHHCCluster):
    """An ``SHHCCluster`` whose single lookups resolve each reply through :func:`resolve_reply`.

    ``lookup_reply`` is :func:`lookup_reply_reference` and the RPC handler
    is :func:`reference_handler`.  Its batch methods are the tree's: a
    batch twin drives :func:`lookup_batch_replies_reference` instead.
    """

    def lookup_reply(self, fingerprint):
        return lookup_reply_reference(self, fingerprint)

    def _make_handler(self, node):
        return reference_handler(self, node)
