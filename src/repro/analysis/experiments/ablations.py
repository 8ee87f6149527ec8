"""Ablation studies motivated by the paper's design discussion and future work.

Three studies (the tables "Ablation A/B/C"):

* **Tier ablation** -- what the hybrid RAM+SSD node layout buys: mean lookup
  latency of the SHHC hybrid node vs a disk-index server, a DDFS-style
  server, a ChunkStash-style server and a pure in-RAM index on the same
  workload (paper §II.B / §III.B positioning).
* **Batch-size trade-off** -- the throughput vs per-request latency trade-off
  the paper's §V explicitly leaves open: sweep the batch size on the
  simulated deployment.
* **Scaling / replication** -- cost of dynamic membership changes (how much
  data moves when a node joins) for the range partitioner vs consistent
  hashing, and the storage/lookup overhead of replication factor 2 (the
  paper's fault-tolerance future work).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ...baselines.chunkstash import ChunkStashIndex
from ...baselines.ddfs import DDFSIndex
from ...baselines.disk_index import DiskIndex
from ...baselines.single_node import SingleNodeHashServer
from ...core.cluster import SHHCCluster
from ...core.config import ClusterConfig, HashNodeConfig
from ...core.membership import MembershipManager
from ...dedup.index import ChunkIndex, InMemoryChunkIndex
from ...workloads.mixer import table_i_mix
from ...workloads.profiles import HOME_DIR, MAIL_SERVER, WorkloadProfile
from ...workloads.traces import TraceGenerator
from .figure5 import _run_one_configuration, _throughput
from .replay import default_node_config

__all__ = ["run_tier_ablation", "run_batch_tradeoff", "run_scaling_ablation"]


# --------------------------------------------------------------------------- tiers
#: Keys per ``lookup_batch`` call when a design is driven over the trace.
_DRIVE_BATCH = 4096


def _drive_index(name: str, index: ChunkIndex, fingerprints: Sequence) -> Dict[str, Any]:
    """One design's row: its lookups, duplicates found and mean lookup latency."""
    total_latency = 0.0
    duplicates = 0
    count = len(fingerprints)
    # Bounded batches: a design's whole-trace result list would hold every
    # result alive at once, and the cyclic collector would rescan them all.
    for start in range(0, count, _DRIVE_BATCH):
        for result in index.lookup_batch(fingerprints[start:start + _DRIVE_BATCH]):
            total_latency += result.latency
            if result.is_duplicate:
                duplicates += 1
    return {
        "design": name,
        "lookups": count,
        "duplicates": duplicates,
        "mean_latency_us": (total_latency / count if count else 0.0) * 1e6,
    }


def run_tier_ablation(
    profile: Optional[WorkloadProfile] = None,
    scale: float = 0.005,
    seed: int = 7,
) -> Dict[str, Any]:
    """Compare index designs (disk, DDFS, ChunkStash, hybrid, RAM) head to head.

    Returns the ``tier_ablation`` preset's metrics, one of ``rows`` per design.
    """
    workload = (profile if profile is not None else MAIL_SERVER).scaled(scale)
    fingerprints = list(TraceGenerator(workload, seed=seed).generate())
    node_config = HashNodeConfig(
        ram_cache_entries=max(1024, len(fingerprints) // 20),
        bloom_expected_items=max(10_000, len(fingerprints) * 2),
    )
    designs = [
        ("disk-index", DiskIndex(cache_entries=max(1024, len(fingerprints) // 20))),
        ("ddfs", DDFSIndex(bloom_expected_items=max(10_000, len(fingerprints) * 2))),
        ("chunkstash", ChunkStashIndex(cache_entries=max(1024, len(fingerprints) // 20))),
        ("shhc-hybrid", SingleNodeHashServer(node_config)),
        ("ram-only", InMemoryChunkIndex()),
    ]
    return {
        "fingerprints": len(fingerprints),
        "rows": [_drive_index(name, index, fingerprints) for name, index in designs],
    }


# --------------------------------------------------------------------------- batching
def run_batch_tradeoff(
    batch_sizes: Sequence[int] = (1, 8, 32, 128, 512, 2048),
    num_nodes: int = 4,
    scale: float = 0.0005,
    num_clients: int = 2,
    seed: int = 0,
) -> Dict[str, Any]:
    """Sweep the batch size on the simulated deployment (paper §V trade-off).

    Returns the ``batch_tradeoff`` preset's metrics, one of ``points`` per
    batch size.
    """
    mix = table_i_mix(seed=seed, profiles=[MAIL_SERVER])
    client_streams = mix.split_among_clients(num_clients, scale=scale)
    expected = sum(len(s) for s in client_streams)
    node_config = default_node_config(expected, floor=100_000)
    points = []
    for batch_size in batch_sizes:
        fingerprints, elapsed, _duplicates = _run_one_configuration(
            num_nodes,
            batch_size,
            client_streams,
            node_config,
            num_web_servers=2,
            window=1,
        )
        # Request latency: time per closed-loop round trip; per-chunk latency
        # divides it by the batch size (what a single chunk effectively waits).
        request_latency = elapsed / (fingerprints / batch_size) if fingerprints else 0.0
        request_latency /= num_clients
        per_chunk = request_latency / batch_size if batch_size else 0.0
        points.append({
            "batch_size": batch_size,
            "throughput": _throughput(fingerprints, elapsed),
            "mean_request_latency_ms": request_latency * 1e3,
            "mean_per_chunk_latency_us": per_chunk * 1e6,
        })
    return {
        "throughput": max((point["throughput"] for point in points), default=None),
        "num_nodes": num_nodes,
        "points": points,
    }


# --------------------------------------------------------------------------- scaling
def _loaded_cluster(num_nodes: int, fingerprints, virtual_nodes: int, replication: int = 1) -> SHHCCluster:
    config = ClusterConfig(
        num_nodes=num_nodes,
        node=HashNodeConfig(
            ram_cache_entries=max(1024, len(fingerprints) // 10),
            bloom_expected_items=max(10_000, len(fingerprints) * 2),
        ),
        virtual_nodes=virtual_nodes,
        replication_factor=replication,
    )
    cluster = SHHCCluster(config)
    cluster.lookup_batch_columns(fingerprints)
    return cluster


def run_scaling_ablation(
    profile: Optional[WorkloadProfile] = None,
    scale: float = 0.01,
    num_nodes: int = 4,
    virtual_nodes: int = 64,
    seed: int = 11,
) -> Dict[str, Any]:
    """Measure join-time data movement and replication overhead.

    Returns the ``scaling_ablation`` preset's metrics.
    """
    workload = (profile if profile is not None else HOME_DIR).scaled(scale)
    fingerprints = list(TraceGenerator(workload, seed=seed).generate())

    # Range partitioner join.
    range_cluster = _loaded_cluster(num_nodes, fingerprints, virtual_nodes=0)
    range_report = MembershipManager(range_cluster).add_node(f"hashnode-{num_nodes}")

    # Consistent hashing join.
    ring_cluster = _loaded_cluster(num_nodes, fingerprints, virtual_nodes=virtual_nodes)
    ring_report = MembershipManager(ring_cluster).add_node(f"hashnode-{num_nodes}")

    # Replication overhead (storage and latency) relative to no replication.
    single = _loaded_cluster(num_nodes, fingerprints, virtual_nodes=0, replication=1)
    replicated = _loaded_cluster(num_nodes, fingerprints, virtual_nodes=0, replication=2)
    # Storage overhead is a capacity question, so compare stored *copies*
    # (len() deduplicates replicas and would always report 1.0x).
    single_entries = single.total_stored
    single_latency = single.mean_lookup_latency()
    return {
        "fingerprints": len(fingerprints),
        "num_nodes": num_nodes,
        "joined_nodes": range_cluster.num_nodes,
        "moved_fraction_range": range_report.moved_fraction,
        "moved_fraction_consistent": ring_report.moved_fraction,
        "balance_after_range": range_cluster.storage_distribution().max_over_mean,
        "balance_after_consistent": ring_cluster.storage_distribution().max_over_mean,
        "replication_entry_overhead": (
            replicated.total_stored / single_entries if single_entries else 1.0
        ),
        "replication_latency_overhead": (
            replicated.mean_lookup_latency() / single_latency if single_latency else 1.0
        ),
    }
