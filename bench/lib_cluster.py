"""``lib_cluster_rf2``: the in-process cluster path, no sockets or persistence."""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Dict, List, Tuple

from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.digest_batch import DigestBatch
from repro.core.hash_node import HybridHashNode
from repro.dedup.fingerprint import Fingerprint, synthetic_fingerprint

from . import procfs
from .spec import (
    BLOOM_EXPECTED_ITEMS, CHUNK_SIZE, LIB_NODES, LIB_REPLAY_CALLS, LIB_REPLICATION,
    TRACE_SLICE_S, Workload, percentile,
)
from .streams import Batch, IdentityStream, prepopulation_batches
from .trace import SliceClock, Tracer, now_ns


def _cluster_config(workload: Workload) -> ClusterConfig:
    return ClusterConfig(
        num_nodes=LIB_NODES,
        replication_factor=LIB_REPLICATION,
        node=HashNodeConfig(
            ram_cache_entries=workload.ram_cache_entries,
            bloom_expected_items=BLOOM_EXPECTED_ITEMS,
        ),
    )


class _Fingerprints:
    """``synthetic_fingerprint`` per identity, computed once."""

    def __init__(self) -> None:
        self.items: List[Fingerprint] = []

    def of(self, batch_identities: List[int], known_after: int) -> List[Fingerprint]:
        items = self.items
        for identity in range(len(items), known_after):
            items.append(synthetic_fingerprint(identity, CHUNK_SIZE))
        return [items[identity] for identity in batch_identities]


def _build(workload: Workload, fingerprints: _Fingerprints,
           violations: List[str]) -> SHHCCluster:
    """Cluster construction + pre-population (``setup_s``)."""
    cluster = SHHCCluster(_cluster_config(workload))
    for lo, hi in prepopulation_batches(workload.prepopulate):
        results = cluster.lookup_batch(fingerprints.of(list(range(lo, hi)), hi))
        if any(result.is_duplicate for result in results):
            violations.append(f"pre-population [{lo},{hi}) saw a duplicate")
    return cluster


def _check(batch: Batch, results, violations: List[str]) -> None:
    """Every verdict equals the plain set model (new <=> identity unseen)."""
    seen = set()
    first_new = batch.first_new
    for identity, result in zip(batch.identities, results):
        expected = identity < first_new or identity in seen
        seen.add(identity)
        if result.is_duplicate != expected:
            if len(violations) < 20:
                violations.append(f"call {batch.seq}: identity {identity} "
                                  f"answered duplicate={result.is_duplicate}")
            return


def run(workload: Workload, seed: int, seconds: float, tracer: Tracer) -> Dict[str, Any]:
    violations: List[str] = []
    setups: List[float] = []
    cluster = None
    fingerprints = _Fingerprints()
    for _ in range(workload.setup_repeats(tracer.active)):
        if cluster is not None:
            cluster.close()
            cluster = None  # release before rebuilding: two clusters would double the peak
        fingerprints = _Fingerprints()
        started = time.perf_counter()
        cluster = _build(workload, fingerprints, violations)
        setups.append(time.perf_counter() - started)
    assert cluster is not None

    stream = IdentityStream(seed, workload.dup_fraction, workload.batch_size,
                            known=workload.prepopulate)
    clock = SliceClock(tracer, TRACE_SLICE_S)
    mark_calls = workload.mark_fps // workload.batch_size
    call_s: List[float] = []
    rss_mb = 0.0
    host = procfs.HostSpeed()
    burst_s = burst_cpu = 0.0
    cpu_before = time.process_time()
    started = time.perf_counter()
    deadline = started + seconds
    if tracer.active:
        clock.start()
    while time.perf_counter() < deadline:
        if not len(call_s) % 4:
            wall, cpu = time.perf_counter(), time.process_time()
            host.burst()
            burst_s += time.perf_counter() - wall
            burst_cpu += time.process_time() - cpu
        batch = stream.next_batch()
        batch_fps = fingerprints.of(batch.identities, batch.known_after)
        call_start = now_ns()
        results = cluster.lookup_batch(batch_fps)
        call_end = now_ns()
        call_s.append((call_end - call_start) / 1e9)
        if tracer.on:
            tracer.add("cluster.lookup_batch", batch.seq + 1, 0, call_start, call_end)
        clock.tick(len(batch_fps))
        _check(batch, results, violations)
        if len(call_s) == mark_calls:
            rss_mb = procfs.status_mb(os.getpid())  # fixed work: mark_fps looked up
    elapsed = time.perf_counter() - started - burst_s
    cpu = time.process_time() - cpu_before - burst_cpu
    clock.stop()
    if not rss_mb:
        rss_mb = procfs.status_mb(os.getpid())
    cluster.close()

    offered = len(call_s) * workload.batch_size
    ordered = sorted(call_s)
    layers: Dict[str, float] = {
        # Stream generation + model check, outside the calls being measured.
        "loadgen.cpu_us_per_fp": (elapsed - sum(call_s)) / offered * 1e6,
        "loadgen.rtt_samples": len(call_s),
        "loadgen.rtt_p99_ms": (percentile(ordered, 0.99) or 0.0) * 1e3,
        "trace.overhead_frac": clock.overhead_frac(),
        "trace.spans": len(tracer.spans),
    }
    layers["host.calib_mops"] = host.mops()
    return {
        "end_to_end": {
            "fps": offered / elapsed,
            "rtt_p50_ms": (percentile(ordered, 0.50) or 0.0) * 1e3,
            "cpu_us_per_fp": cpu / offered * 1e6,
            "rss_mb": rss_mb,
            "setup_s": statistics.median(setups),
        },
        "per_layer": layers,
        "attempted": len(call_s),
        "failed": 0,
        "violations": violations,
    }


# ---------------------------------------------------------------------- replay
def _route(cluster: SHHCCluster, batch_fps: List[Fingerprint]) -> List[Tuple[str, List[Fingerprint]]]:
    routed = cluster.route_batch(batch_fps)
    return [(name, request.fingerprints) for name, (request, _positions) in routed.items()]


def replay(workload: Workload, seed: int, tracer: Tracer,
           calls: int = LIB_REPLAY_CALLS) -> Dict[str, float]:
    """The first ``calls`` calls twice on fresh state: through
    ``lookup_batch``, and as the same routed buckets served by bare nodes.
    The difference is what ``core.cluster`` itself costs."""
    violations: List[str] = []
    fingerprints = _Fingerprints()
    cluster = _build(workload, fingerprints, violations)
    config = _cluster_config(workload)
    nodes = {name: HybridHashNode(name, config.node) for name in config.node_names}
    for lo, hi in prepopulation_batches(workload.prepopulate):
        for name, bucket in _route(cluster, fingerprints.of(list(range(lo, hi)), hi)):
            nodes[name].serve_bucket_verdicts(DigestBatch.from_fingerprints(bucket))

    def replica_inserts() -> int:
        return sum(node.counters.get("replica_inserts") for node in cluster.nodes.values())

    stream = IdentityStream(seed, workload.dup_fraction, workload.batch_size,
                            known=workload.prepopulate)
    replicas_before = replica_inserts()
    lookup_ns = node_ns = offered = 0
    for _ in range(calls):
        batch = stream.next_batch()
        batch_fps = fingerprints.of(batch.identities, batch.known_after)
        buckets = _route(cluster, batch_fps)
        trace_id = batch.seq + 1
        start = now_ns()
        cluster.lookup_batch(batch_fps)
        end = now_ns()
        root = tracer.add("replay.lookup_batch", trace_id, 0, start, end)
        lookup_ns += end - start
        for name, bucket in buckets:
            digest_batch = DigestBatch.from_fingerprints(bucket)
            start = now_ns()
            nodes[name].serve_bucket_verdicts(digest_batch)
            end = now_ns()
            tracer.add("replay.node_serve", trace_id, root, start, end)
            node_ns += end - start
        offered += len(batch_fps)
    replica_writes = replica_inserts() - replicas_before
    cluster.close()
    return {
        "cluster.lookup_us_per_fp": lookup_ns / offered / 1e3,
        "cluster.self_us_per_fp": (lookup_ns - node_ns) / offered / 1e3,
        "cluster.replica_writes_per_fp": replica_writes / offered,
    }
