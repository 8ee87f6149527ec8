"""Ablation D -- repeated full backups (the cloud-backup access pattern).

The paper motivates SHHC with the observation that backup workloads are
dominated by repeated full backups of mostly unchanged data (§I: ~75 % of
digital data is a copy).  This experiment drives a multi-generation backup
cycle through the cluster and reports, per generation: how much of the
generation was already stored (cross-generation redundancy), what fraction of
lookups the RAM tier absorbed, and the cumulative dedup ratio -- the numbers
a capacity planner would use to size the hash cluster for a backup fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from ...core.cluster import SHHCCluster
from ...core.config import ClusterConfig, HashNodeConfig
from ...workloads.generations import GenerationConfig, GenerationalWorkload

__all__ = ["GenerationRow", "GenerationalResult", "run_generational_backup", "DEFAULT_CONFIG"]

#: The backup cycle a default run replays.
DEFAULT_CONFIG = GenerationConfig(
    initial_chunks=20_000, generations=7, modify_fraction=0.03, growth_fraction=0.01
)


@dataclass(frozen=True)
class GenerationRow:
    """Measurements for one backup generation."""

    generation: int
    chunks: int
    duplicates: int
    ram_hits: int
    cumulative_dedup_ratio: float

    @property
    def redundancy(self) -> float:
        return self.duplicates / self.chunks if self.chunks else 0.0

    @property
    def ram_hit_ratio(self) -> float:
        return self.ram_hits / self.chunks if self.chunks else 0.0


@dataclass
class GenerationalResult:
    """Per-generation dedup and cache behaviour over a full backup cycle."""

    num_nodes: int
    rows: List[GenerationRow] = field(default_factory=list)

    def final_dedup_ratio(self) -> float:
        return self.rows[-1].cumulative_dedup_ratio if self.rows else 1.0


def run_generational_backup(
    config: Optional[GenerationConfig] = None,
    num_nodes: int = 4,
    ram_cache_entries: Optional[int] = None,
    seed: Optional[int] = None,
) -> GenerationalResult:
    """Back up every generation through the cluster and measure per-generation stats.

    ``seed`` overrides the workload config's seed (it is the one knob a
    declarative scenario spec threads through every runner).
    """
    workload_config = config if config is not None else DEFAULT_CONFIG
    if seed is not None and seed != workload_config.seed:
        workload_config = replace(workload_config, seed=seed)
    workload = GenerationalWorkload(workload_config)
    cache_entries = (
        ram_cache_entries
        if ram_cache_entries is not None
        else max(1024, workload_config.initial_chunks // 2)
    )
    cluster = SHHCCluster(
        ClusterConfig(
            num_nodes=num_nodes,
            node=HashNodeConfig(
                ram_cache_entries=cache_entries,
                bloom_expected_items=max(10_000, workload.unique_chunks() * 2),
            ),
        )
    )

    result = GenerationalResult(num_nodes=num_nodes)
    logical_chunks = 0
    for generation in workload.generations:
        metrics_before = cluster.metrics()
        ram_hits_before = metrics_before.ram_hits
        fingerprints = list(generation.fingerprints(workload_config.chunk_size))
        replies = cluster.lookup_batch_replies(fingerprints)
        duplicates = sum(1 for reply in replies if reply.is_duplicate)
        logical_chunks += len(fingerprints)
        physical_chunks = len(cluster)
        metrics_after = cluster.metrics()
        result.rows.append(
            GenerationRow(
                generation=generation.number,
                chunks=len(fingerprints),
                duplicates=duplicates,
                ram_hits=metrics_after.ram_hits - ram_hits_before,
                cumulative_dedup_ratio=logical_chunks / physical_chunks if physical_chunks else 1.0,
            )
        )
    return result
