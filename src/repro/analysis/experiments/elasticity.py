"""Elasticity experiment -- dedup accuracy and data movement under churn.

The paper pitches the hash cluster as elastically scalable but leaves
dynamic membership as future work (§V); this experiment measures the
implementation.  A mixed backup workload is streamed through a replicated
cluster in client-sized batches
(:func:`~repro.analysis.experiments.replay.replay`) while a
:class:`~repro.core.membership.ChurnPlan` joins and removes nodes on a
logical time axis of batch indices.  Every verdict is checked against an
exact oracle, so the headline numbers are *dedup accuracy under churn*
plus the migration bill: the fraction of entries moved, and how much of
the movement is primary moves versus replica-copy traffic (the replication
tax of elasticity, zero at ``replication_factor == 1``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...core.cluster import SHHCCluster
from ...core.config import HashNodeConfig
from ...core.membership import ChurnPlan
from ...workloads.mixer import WorkloadMix
from .replay import (
    MIN_NODES,
    Churn,
    ReplayAudit,
    audit_metrics,
    cluster_config,
    make_batches,
    replay,
    replication_metrics,
    require_room,
)

__all__ = ["run_elasticity", "DEFAULT_CHURN_EVENTS"]

#: Membership changes a default run performs (two full join/leave cycles).
DEFAULT_CHURN_EVENTS = 4


def run_elasticity(
    scale: float = 0.002,
    num_nodes: int = 4,
    replication_factor: int = 2,
    virtual_nodes: int = 64,
    batch_size: int = 256,
    mix: Optional[WorkloadMix] = None,
    churn_plan: Optional[ChurnPlan] = None,
    node_config: Optional[HashNodeConfig] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Measure dedup accuracy and migration traffic while nodes join/leave.

    The churn schedule lives on the logical time axis of batch indices,
    like the failover experiment's outage schedule: an event at ``t`` fires
    before batch ``ceil(t)`` is sent
    (:class:`~repro.analysis.experiments.replay.Churn` says which node
    joins or leaves).  With a replica-aware
    :class:`~repro.core.membership.MembershipManager` the expected dedup
    error count is exactly zero at every replication factor.

    Returns the ``elasticity`` preset's metrics.
    """
    if num_nodes < MIN_NODES:
        raise ValueError(f"num_nodes must be >= {MIN_NODES}")
    plan = churn_plan if churn_plan is not None else ChurnPlan.join_leave(DEFAULT_CHURN_EVENTS)
    fingerprints, batches = make_batches(mix, scale, batch_size, seed)
    if plan.has_churn:
        require_room(batches, batch_size, plan.start, "a churn plan")
    config = cluster_config(
        num_nodes, replication_factor, virtual_nodes, node_config, len(fingerprints)
    )
    cluster = SHHCCluster(config)
    churn = Churn(cluster, plan, horizon=float(len(batches)))
    audit = ReplayAudit()
    replay(cluster, batches, churn, audit)

    reports = [report for _, _, report in churn.applied]
    entries_moved = churn.entries_moved
    # Entries every change found in place before it ran, summed over the run.
    entries_examined = sum(report.entries_before for report in reports)
    return {
        **audit_metrics(audit, config, batch_size),
        "joins": churn.joins,
        "leaves": churn.leaves,
        "skipped_events": churn.skipped,
        "final_nodes": cluster.num_nodes,
        "entries_moved": entries_moved,
        # Copies created per pre-change entry, aggregated over all events.
        "moved_fraction": entries_moved / entries_examined if entries_examined else 0.0,
        "primary_moves": sum(report.primary_moves for report in reports),
        "replica_copies": sum(report.replica_copies for report in reports),
        "replica_drops": sum(report.replica_drops for report in reports),
        # Per-event timeline: (batch index, action, node, entries moved).
        "events": [
            (event.time, event.action, node_id, report.entries_moved)
            for event, node_id, report in churn.applied
        ],
        **replication_metrics(cluster, churn.manager.controller),
    }
