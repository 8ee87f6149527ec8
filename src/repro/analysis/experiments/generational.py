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

from dataclasses import replace
from typing import Any, Dict, Optional

from ...core.cluster import SHHCCluster
from ...core.config import ClusterConfig, HashNodeConfig
from ...workloads.generations import GenerationConfig, GenerationalWorkload

__all__ = ["run_generational_backup", "DEFAULT_CONFIG"]

#: The backup cycle a default run replays.
DEFAULT_CONFIG = GenerationConfig(
    initial_chunks=20_000, generations=7, modify_fraction=0.03, growth_fraction=0.01
)


def run_generational_backup(
    config: Optional[GenerationConfig] = None,
    num_nodes: int = 4,
    ram_cache_entries: Optional[int] = None,
    seed: Optional[int] = None,
) -> Dict[str, Any]:
    """Back up every generation through the cluster and measure per-generation stats.

    ``seed`` overrides the workload config's seed (it is the one knob a
    declarative scenario spec threads through every runner).  Returns the
    ``generational`` preset's metrics, one of ``rows`` per generation.
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

    rows = []
    logical_chunks = duplicates_total = 0
    for generation in workload.generations:
        ram_hits_before = cluster.metrics().ram_hits
        fingerprints = list(generation.fingerprints(workload_config.chunk_size))
        tiers, _service_times, _node_ids = cluster.lookup_batch_columns(fingerprints)
        chunks = len(fingerprints)
        duplicates = chunks - tiers.count(0)
        ram_hits = cluster.metrics().ram_hits - ram_hits_before
        logical_chunks += chunks
        duplicates_total += duplicates
        physical_chunks = len(cluster)
        rows.append({
            "generation": generation.number,
            "chunks": chunks,
            "redundancy": duplicates / chunks if chunks else 0.0,
            "ram_hit_ratio": ram_hits / chunks if chunks else 0.0,
            "cumulative_dedup_ratio": logical_chunks / physical_chunks if physical_chunks else 1.0,
        })
    return {
        "fingerprints": logical_chunks,
        "duplicate_ratio": duplicates_total / logical_chunks if logical_chunks else 0.0,
        "final_dedup_ratio": rows[-1]["cumulative_dedup_ratio"] if rows else 1.0,
        "num_nodes": num_nodes,
        "rows": rows,
    }
