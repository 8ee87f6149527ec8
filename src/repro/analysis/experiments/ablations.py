"""Ablation studies motivated by the paper's design discussion and future work.

Three studies (see DESIGN.md, experiments "Ablation A/B/C"):

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

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

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
from ..reporting import format_table
from .figure5 import Figure5Point, _run_one_configuration
from .replay import default_node_config

__all__ = [
    "TierAblationRow",
    "TierAblationResult",
    "run_tier_ablation",
    "BatchTradeoffPoint",
    "BatchTradeoffResult",
    "run_batch_tradeoff",
    "ScalingAblationResult",
    "run_scaling_ablation",
]


# --------------------------------------------------------------------------- tiers
@dataclass(frozen=True)
class TierAblationRow:
    """Latency and hit statistics of one index design on the shared workload."""

    design: str
    lookups: int
    duplicates: int
    mean_latency: float
    total_io_time: float

    @property
    def mean_latency_us(self) -> float:
        return self.mean_latency * 1e6


@dataclass
class TierAblationResult:
    rows: List[TierAblationRow] = field(default_factory=list)

    def render(self) -> str:
        return format_table(
            ["design", "lookups", "duplicates", "mean latency (us)"],
            [
                [row.design, row.lookups, row.duplicates, round(row.mean_latency_us, 1)]
                for row in self.rows
            ],
            title="Ablation A: index designs on the same workload",
        )


def _drive_index(name: str, index: ChunkIndex, fingerprints: Sequence) -> TierAblationRow:
    total_latency = 0.0
    duplicates = 0
    for fingerprint in fingerprints:
        result = index.lookup(fingerprint)
        total_latency += result.latency
        if result.is_duplicate:
            duplicates += 1
    count = len(fingerprints)
    return TierAblationRow(
        design=name,
        lookups=count,
        duplicates=duplicates,
        mean_latency=total_latency / count if count else 0.0,
        total_io_time=total_latency,
    )


def run_tier_ablation(
    profile: Optional[WorkloadProfile] = None,
    scale: float = 0.005,
    seed: int = 7,
) -> TierAblationResult:
    """Compare index designs (disk, DDFS, ChunkStash, hybrid, RAM) head to head."""
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
    result = TierAblationResult()
    for name, index in designs:
        result.rows.append(_drive_index(name, index, fingerprints))
    return result


# --------------------------------------------------------------------------- batching
@dataclass(frozen=True)
class BatchTradeoffPoint:
    """Throughput and request latency for one batch size."""

    batch_size: int
    throughput: float
    mean_request_latency: float
    mean_per_chunk_latency: float


@dataclass
class BatchTradeoffResult:
    nodes: int
    points: List[BatchTradeoffPoint] = field(default_factory=list)

    def render(self) -> str:
        return format_table(
            ["batch", "chunk/s", "request latency (ms)", "per-chunk latency (us)"],
            [
                [
                    point.batch_size,
                    round(point.throughput),
                    round(point.mean_request_latency * 1e3, 3),
                    round(point.mean_per_chunk_latency * 1e6, 1),
                ]
                for point in self.points
            ],
            title=f"Ablation B: batch size trade-off ({self.nodes} nodes)",
        )


def run_batch_tradeoff(
    batch_sizes: Sequence[int] = (1, 8, 32, 128, 512, 2048),
    num_nodes: int = 4,
    scale: float = 0.0005,
    num_clients: int = 2,
    seed: int = 0,
) -> BatchTradeoffResult:
    """Sweep the batch size on the simulated deployment (paper §V trade-off)."""
    mix = table_i_mix(seed=seed, profiles=[MAIL_SERVER])
    client_streams = mix.split_among_clients(num_clients, scale=scale)
    expected = sum(len(s) for s in client_streams)
    node_config = default_node_config(expected, floor=100_000)
    result = BatchTradeoffResult(nodes=num_nodes)
    for batch_size in batch_sizes:
        point: Figure5Point = _run_one_configuration(
            num_nodes,
            batch_size,
            client_streams,
            node_config,
            num_web_servers=2,
            window=1,
        )
        # Request latency: time per closed-loop round trip; per-chunk latency
        # divides it by the batch size (what a single chunk effectively waits).
        request_latency = point.elapsed / (point.fingerprints / batch_size) if point.fingerprints else 0.0
        request_latency /= num_clients
        per_chunk = request_latency / batch_size if batch_size else 0.0
        result.points.append(
            BatchTradeoffPoint(
                batch_size=batch_size,
                throughput=point.throughput,
                mean_request_latency=request_latency,
                mean_per_chunk_latency=per_chunk,
            )
        )
    return result


# --------------------------------------------------------------------------- scaling
@dataclass
class ScalingAblationResult:
    """Data movement of a node join under both partitioners, plus replication cost."""

    fingerprints: int
    moved_fraction_range: float = 0.0
    moved_fraction_consistent: float = 0.0
    balance_after_range: float = 0.0
    balance_after_consistent: float = 0.0
    replication_entry_overhead: float = 0.0
    replication_latency_overhead: float = 0.0

    def render(self) -> str:
        rows = [
            ["range partitioner", f"{self.moved_fraction_range * 100:.1f}%", f"{self.balance_after_range:.3f}"],
            [
                "consistent hashing",
                f"{self.moved_fraction_consistent * 100:.1f}%",
                f"{self.balance_after_consistent:.3f}",
            ],
        ]
        table = format_table(
            ["partitioner", "entries moved on join", "post-join max/mean"],
            rows,
            title=f"Ablation C: scaling a 4-node cluster to 5 nodes ({self.fingerprints:,} fingerprints)",
        )
        extra = (
            f"replication factor 2: {self.replication_entry_overhead:.2f}x stored entries, "
            f"{self.replication_latency_overhead:.2f}x mean lookup cost"
        )
        return table + "\n" + extra


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
    cluster.lookup_batch_replies(list(fingerprints))
    return cluster


def run_scaling_ablation(
    profile: Optional[WorkloadProfile] = None,
    scale: float = 0.01,
    num_nodes: int = 4,
    virtual_nodes: int = 64,
    seed: int = 11,
) -> ScalingAblationResult:
    """Measure join-time data movement and replication overhead."""
    workload = (profile if profile is not None else HOME_DIR).scaled(scale)
    fingerprints = list(TraceGenerator(workload, seed=seed).generate())
    result = ScalingAblationResult(fingerprints=len(fingerprints))

    # Range partitioner join.
    range_cluster = _loaded_cluster(num_nodes, fingerprints, virtual_nodes=0)
    range_report = MembershipManager(range_cluster).add_node(f"hashnode-{num_nodes}")
    result.moved_fraction_range = range_report.moved_fraction
    result.balance_after_range = range_cluster.storage_distribution().max_over_mean

    # Consistent hashing join.
    ring_cluster = _loaded_cluster(num_nodes, fingerprints, virtual_nodes=virtual_nodes)
    ring_report = MembershipManager(ring_cluster).add_node(f"hashnode-{num_nodes}")
    result.moved_fraction_consistent = ring_report.moved_fraction
    result.balance_after_consistent = ring_cluster.storage_distribution().max_over_mean

    # Replication overhead (storage and latency) relative to no replication.
    single = _loaded_cluster(num_nodes, fingerprints, virtual_nodes=0, replication=1)
    replicated = _loaded_cluster(num_nodes, fingerprints, virtual_nodes=0, replication=2)
    # Storage overhead is a capacity question, so compare stored *copies*
    # (len() deduplicates replicas and would always report 1.0x).
    single_entries = single.total_stored
    result.replication_entry_overhead = (
        replicated.total_stored / single_entries if single_entries else 1.0
    )
    single_latency = single.mean_lookup_latency()
    result.replication_latency_overhead = (
        replicated.mean_lookup_latency() / single_latency if single_latency else 1.0
    )
    return result
