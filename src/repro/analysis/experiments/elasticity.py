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

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ...core.cluster import SHHCCluster
from ...core.config import HashNodeConfig
from ...core.membership import ChurnPlan
from ...workloads.mixer import WorkloadMix
from .replay import (
    MIN_NODES,
    Churn,
    ReplayAudit,
    cluster_config,
    fill_replication,
    make_batches,
    replay,
    require_room,
)

__all__ = ["ElasticityResult", "run_elasticity", "DEFAULT_CHURN_EVENTS"]

#: Membership changes a default run performs (two full join/leave cycles).
DEFAULT_CHURN_EVENTS = 4


@dataclass
class ElasticityResult(ReplayAudit):
    """Outcome of one churn run."""

    num_nodes: int
    replication_factor: int
    virtual_nodes: int
    batch_size: int
    churn_plan: Optional[ChurnPlan] = None
    joins: int = 0
    leaves: int = 0
    skipped_events: int = 0
    entries_moved: int = 0
    entries_examined: int = 0  # sum of pre-change entry counts across events
    primary_moves: int = 0
    replica_copies: int = 0
    replica_drops: int = 0
    read_repairs: int = 0
    replica_inserts: int = 0
    final_nodes: int = 0
    distinct: int = 0
    total_stored: int = 0
    fully_replicated: int = 0
    under_replicated: int = 0
    lost: int = 0
    #: Per-event timeline: (batch index, action, node, entries moved).
    events: List[Tuple[float, str, str, int]] = field(default_factory=list)

    @property
    def moved_fraction(self) -> float:
        """Copies created per pre-change entry, aggregated over all events."""
        return self.entries_moved / self.entries_examined if self.entries_examined else 0.0


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
) -> ElasticityResult:
    """Measure dedup accuracy and migration traffic while nodes join/leave.

    The churn schedule lives on the logical time axis of batch indices,
    like the failover experiment's outage schedule: an event at ``t`` fires
    before batch ``ceil(t)`` is sent
    (:class:`~repro.analysis.experiments.replay.Churn` says which node
    joins or leaves).  With a replica-aware
    :class:`~repro.core.membership.MembershipManager` the expected dedup
    error count is exactly zero at every replication factor.
    """
    if num_nodes < MIN_NODES:
        raise ValueError(f"num_nodes must be >= {MIN_NODES}")
    plan = churn_plan if churn_plan is not None else ChurnPlan.join_leave(DEFAULT_CHURN_EVENTS)
    fingerprints, batches = make_batches(mix, scale, batch_size, seed)
    if plan.has_churn:
        require_room(batches, batch_size, plan.start, "a churn plan")
    cluster = SHHCCluster(
        cluster_config(num_nodes, replication_factor, virtual_nodes, node_config, len(fingerprints))
    )
    churn = Churn(cluster, plan, horizon=float(len(batches)))
    result = ElasticityResult(
        num_nodes=num_nodes,
        replication_factor=replication_factor,
        virtual_nodes=virtual_nodes,
        batch_size=batch_size,
        churn_plan=plan,
        fingerprints_processed=len(fingerprints),
        batches=len(batches),
    )
    replay(cluster, batches, churn, result)

    result.joins, result.leaves, result.skipped_events = churn.joins, churn.leaves, churn.skipped
    for event, node_id, report in churn.applied:
        result.entries_moved += report.entries_moved
        result.entries_examined += report.entries_before
        result.primary_moves += report.primary_moves
        result.replica_copies += report.replica_copies
        result.replica_drops += report.replica_drops
        result.events.append((event.time, event.action, node_id, report.entries_moved))
    result.final_nodes = cluster.num_nodes
    fill_replication(result, cluster, churn.manager.controller)
    return result
