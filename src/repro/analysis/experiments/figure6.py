"""Figure 6 -- hash value storage distribution across cluster nodes.

The paper stores the four mixed workloads on a 4-node cluster and reports
the percentage of hash-table entries held by each node: roughly 25 % each,
i.e. the partitioning scheme is load balanced.  Because balance is a
property of the partitioner and the fingerprint distribution (not of
timing), the runner uses the cluster in immediate mode, which lets it use a
much larger slice of the workload than the timing experiments.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ...core.cluster import SHHCCluster
from ...core.config import ClusterConfig, HashNodeConfig
from ...core.metrics import LoadBalanceReport
from ...workloads.mixer import WorkloadMix, table_i_mix
from .replay import default_node_config

__all__ = ["run_figure6"]


def run_figure6(
    num_nodes: int = 4,
    scale: float = 0.01,
    mix: Optional[WorkloadMix] = None,
    node_config: Optional[HashNodeConfig] = None,
    virtual_nodes: int = 0,
    seed: int = 0,
) -> Dict[str, Any]:
    """Reproduce Figure 6: feed the mixed workload and measure per-node shares.

    Returns the ``figure6`` preset's metrics: one of ``per_node`` per node,
    plus the balance summary statistics.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    workload = mix if mix is not None else table_i_mix(seed=seed)
    fingerprints: Sequence = workload.interleaved(scale=scale)
    config = node_config if node_config is not None else default_node_config(len(fingerprints))
    cluster = SHHCCluster(
        ClusterConfig(num_nodes=num_nodes, node=config, virtual_nodes=virtual_nodes)
    )
    cluster.lookup_batch_replies(list(fingerprints))

    snapshots = {name: node.snapshot() for name, node in cluster.nodes.items()}
    storage = LoadBalanceReport({name: snap.entries for name, snap in snapshots.items()})
    lookups = LoadBalanceReport({name: snap.lookups for name, snap in snapshots.items()})
    fractions = storage.fractions()
    return {
        "fingerprints": len(fingerprints),
        "num_nodes": num_nodes,
        "storage_fractions": fractions,
        "coefficient_of_variation": storage.coefficient_of_variation,
        "max_deviation_from_even": storage.max_deviation_from_even(),
        "lookup_max_over_mean": lookups.max_over_mean,
        "per_node": [
            {
                "node": name,
                "entries": snapshots[name].entries,
                "share": fractions[name],
                "lookups": snapshots[name].lookups,
            }
            for name in sorted(snapshots)
        ],
    }
