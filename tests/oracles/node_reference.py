"""The hybrid hash node's per-fingerprint Figure-4 flow, kept verbatim as an oracle.

``HybridHashNode`` serves every key through one batch contract
(``serve_bucket_verdicts`` over the generated kernel of
``repro.core.bucket_kernel``) and builds no per-key reply.  This module
keeps the readable per-fingerprint flow the kernel was written from -- RAM
LRU probe, bloom guard, SSD bucket probe, insert on a miss -- with its costs
spelled one page operation at a time through ``SSDHashStore.lookup_io`` /
``insert_io`` and the node's device models.  It drives a real node's cache,
bloom filter, store and counters, so a twin node served through the kernel
must end in the same state with the same replies, lifted from its columns by
``oracles.replies.node_lookup_batch``
(``tests/test_vectorized_kernels.py``).

:func:`insert_replica` is the per-key replica write the cluster's batched
propagation replaced (``SSDHashStore.put_many_verdicts`` +
``HybridHashNode.finish_replica_inserts``); ``oracles.cluster_reference``
resolves replies with it.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.protocol import ServedFrom
from repro.dedup.fingerprint import Fingerprint

from .replies import LookupReply


def lookup(node, fingerprint: Fingerprint) -> LookupReply:
    """Process one fingerprint through the Figure-4 flow (immediate mode)."""
    reply, _io_time = lookup_core(node, fingerprint)
    node.lookup_latency.add(reply.service_time)
    if not reply.is_duplicate and node.persistence is not None:
        node._persist_new([(fingerprint.digest, fingerprint.chunk_size)])
    return reply


def lookup_core(node, fingerprint: Fingerprint) -> Tuple[LookupReply, float]:
    """Per-fingerprint lookup logic: updates state, returns the reply and SSD time.

    The returned ``service_time`` is the analytic (unloaded) cost:
    CPU + RAM + any SSD page accesses.  The second tuple element is the
    SSD-only portion.
    """
    digest = fingerprint.digest
    node.counters["lookups"] += 1
    cpu_time = node.config.cpu_per_lookup
    ram_time = node.ram_device.read_cost(64)
    ssd_time = 0.0

    # 1. RAM LRU probe.
    if node.cache.get(digest) is not None:
        node.counters["ram_hits"] += 1
        reply = LookupReply(
            fingerprint=fingerprint,
            is_duplicate=True,
            served_from=ServedFrom.RAM,
            node_id=node.node_id,
            service_time=cpu_time + ram_time,
        )
        return reply, ssd_time

    # 2. Bloom filter guard.
    if digest not in node.bloom:
        node.counters["bloom_negative_shortcuts"] += 1
        ssd_time += insert_new(node, fingerprint)
        reply = LookupReply(
            fingerprint=fingerprint,
            is_duplicate=False,
            served_from=ServedFrom.NEW,
            node_id=node.node_id,
            service_time=cpu_time + ram_time + ssd_time,
        )
        return reply, ssd_time

    # 3. SSD hash-table probe.
    for operation in node.store.lookup_io(digest):
        ssd_time += device_cost(node, operation)
    if digest in node.store:
        node.counters["ssd_hits"] += 1
        cache_put(node, digest)
        reply = LookupReply(
            fingerprint=fingerprint,
            is_duplicate=True,
            served_from=ServedFrom.SSD,
            node_id=node.node_id,
            service_time=cpu_time + ram_time + ssd_time,
        )
        return reply, ssd_time

    # Bloom false positive: the SSD read found nothing.
    node.counters["bloom_false_positives"] += 1
    ssd_time += insert_new(node, fingerprint)
    reply = LookupReply(
        fingerprint=fingerprint,
        is_duplicate=False,
        served_from=ServedFrom.NEW,
        node_id=node.node_id,
        service_time=cpu_time + ram_time + ssd_time,
    )
    return reply, ssd_time


def insert_new(node, fingerprint: Fingerprint) -> float:
    """Record a previously unseen fingerprint; returns the SSD write time."""
    digest = fingerprint.digest
    node.counters["new_entries"] += 1
    node.store.put(digest, fingerprint.chunk_size)
    node.bloom.add(digest)
    cache_put(node, digest)
    ssd_time = 0.0
    for operation in node.store.insert_io(digest):
        ssd_time += device_cost(node, operation)
    return ssd_time


def cache_put(node, digest: bytes) -> None:
    """Promote ``digest`` into the RAM tier, counting the destage it may force.

    Cached entries are already in the SSD table, so a destage is just
    the dropped RAM copy.
    """
    if node.cache.put(digest, True) is not None:
        node.counters["destages"] += 1


def device_cost(node, operation) -> float:
    if operation.kind == "read":
        return node.ssd_device.read_cost(operation.size_bytes, operation.random_access)
    return node.ssd_device.write_cost(operation.size_bytes, operation.random_access)


def insert_replica(node, fingerprint: Fingerprint) -> bool:
    """Store a replica copy of ``fingerprint`` without serving a lookup.

    This is the cluster's replica *write* path: it must not touch the
    ``lookups`` counter or ``lookup_latency`` (a replication write is
    not a client lookup, and counting it would inflate per-node load and
    skew ``duplicate_ratio``).  The copy goes into the SSD store and the
    bloom filter but deliberately not into the RAM LRU, which is reserved
    for fingerprints this node actually served.  Returns ``True`` if the
    fingerprint was new on this node.
    """
    digest = fingerprint.digest
    if not node.store.put(digest, fingerprint.chunk_size):
        return False
    node.bloom.add(digest)
    node.counters["replica_inserts"] += 1
    if node.persistence is not None:
        node._persist_new([(digest, fingerprint.chunk_size)])
    return True
