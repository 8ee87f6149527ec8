"""Failover experiment -- dedup accuracy and latency under injected failures.

The paper presents SHHC as a hash cluster that keeps serving lookups through
node failures; this experiment turns that claim into a measured scenario.
A mixed backup workload is streamed through the cluster in client-sized
batches (:func:`~repro.analysis.experiments.replay.replay`) while a
:class:`~repro.core.fault_injection.FaultSchedule` crashes
and recovers nodes one at a time (the regime a replication factor of 2 must
survive without losing a single verdict).  Every verdict is checked against
an exact oracle (a set of previously seen digests), so the headline number
is *dedup accuracy under failures*; the run also reports read repairs,
failovers, replica-repair traffic and the latency overhead versus a
fault-free run of the same workload.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...core.cluster import SHHCCluster
from ...core.config import HashNodeConfig
from ...core.fault_injection import (
    FaultInjector,
    FaultPlan,
    FaultSchedule,
    rolling_outage_schedule,
)
from ...core.replication import ReplicationController
from ...simulation.stats import LatencyTally
from ...workloads.mixer import WorkloadMix
from .replay import (
    Outages,
    ReplayAudit,
    audit_metrics,
    cluster_config,
    make_batches,
    replay,
    replication_metrics,
    require_room,
)

__all__ = ["run_failover"]


def run_failover(
    scale: float = 0.002,
    num_nodes: int = 4,
    replication_factor: int = 2,
    virtual_nodes: int = 64,
    batch_size: int = 256,
    mix: Optional[WorkloadMix] = None,
    schedule: Optional[FaultSchedule] = None,
    fault_plan: Optional[FaultPlan] = None,
    outage_density: Optional[float] = None,
    node_config: Optional[HashNodeConfig] = None,
    repair_on_recovery: bool = True,
    seed: int = 0,
) -> Dict[str, Any]:
    """Measure dedup accuracy and latency while nodes crash and recover.

    The default schedule rolls a single-node outage across the cluster
    (crash, serve degraded, recover, repair, next node) on a logical time
    axis of batch indices; pass ``schedule`` for custom scenarios.  With
    ``replication_factor >= 2`` and one node down at a time the expected
    dedup error count is exactly zero.

    Declarative scenarios come in through ``fault_plan`` (a
    :class:`~repro.core.fault_injection.FaultPlan`: rolling outages sized by
    density, grey-failing nodes, or both) or the ``outage_density``
    shorthand (equivalent to ``FaultPlan.rolling_outage(outage_density)``).
    Plan-driven runs accept ``replication_factor == 1``: fingerprints whose
    whole replica set is down are tallied as ``unserved`` instead of
    aborting the run, which is precisely the dedup loss the replication
    sweep quantifies.

    Returns the ``failover`` preset's metrics.
    """
    if fault_plan is not None and (schedule is not None or outage_density is not None):
        raise ValueError("pass at most one of fault_plan, schedule, outage_density")
    if outage_density is not None:
        fault_plan = FaultPlan.rolling_outage(outage_density)
    if replication_factor < 2 and schedule is None and fault_plan is None:
        # Fail before the (expensive) baseline run: an unreplicated cluster
        # cannot serve fingerprints whose owner the default rolling-outage
        # schedule has crashed.
        raise ValueError(
            "replication_factor must be >= 2 to survive the default rolling outage "
            "schedule; pass an explicit FaultSchedule or FaultPlan for "
            "unreplicated runs"
        )
    fingerprints, batches = make_batches(mix, scale, batch_size, seed)
    if fault_plan is not None and fault_plan.has_outages:
        require_room(batches, batch_size, fault_plan.start, "an outage plan")
    config = cluster_config(
        num_nodes, replication_factor, virtual_nodes, node_config, len(fingerprints)
    )

    def measured_replay(cluster: SHHCCluster, disruption: Outages,
                        audit: ReplayAudit) -> LatencyTally:
        """Every lookup's latency."""
        tally = LatencyTally()
        replay(
            cluster,
            batches,
            disruption,
            audit,
            observe=lambda outcomes: tally.add_many(o.latency for o in outcomes),
        )
        return tally

    # -- fault-free baseline (latency reference; audit discarded) --------------------
    baseline = SHHCCluster(config)
    baseline_mean = measured_replay(baseline, Outages.none(baseline), ReplayAudit()).mean

    # -- faulty run -----------------------------------------------------------------
    cluster = SHHCCluster(config)
    controller = ReplicationController(cluster)
    repaired_copies = 0

    def _on_recovery(_node: str) -> None:
        nonlocal repaired_copies
        if repair_on_recovery:
            repaired_copies += controller.repair()

    flaky_wrappers = []
    if fault_plan is not None:
        # Horizon is the logical clock of this runner: the batch index.
        schedule = fault_plan.schedule(cluster.node_names, horizon=float(len(batches)))
        flaky_wrappers = fault_plan.apply_grey(cluster, seed=seed)
    elif schedule is None:
        period = max(2, len(batches) // max(1, num_nodes))
        downtime = max(1, period // 2)
        schedule = rolling_outage_schedule(
            cluster.node_names, period=period, downtime=downtime, start=1.0
        )
    injector = FaultInjector(cluster, schedule, on_recovery=_on_recovery)

    audit = ReplayAudit()
    latency = measured_replay(cluster, Outages(injector), audit)

    def percentile_us(q: float) -> float:
        return latency.percentile(q) * 1e6 if latency.count else 0.0

    tiers = cluster.metrics()
    return {
        **audit_metrics(audit, config, batch_size),
        "mean_latency_us": latency.mean * 1e6,
        "p50_latency_us": percentile_us(0.50),
        "p95_latency_us": percentile_us(0.95),
        "p99_latency_us": percentile_us(0.99),
        "baseline_mean_latency_us": baseline_mean * 1e6,
        # The relative mean-latency cost of running through failures.
        "latency_overhead": latency.mean / baseline_mean - 1.0 if baseline_mean > 0.0 else 0.0,
        "served_from": {
            "ram": tiers.ram_hits,
            "ssd": tiers.ssd_hits,
            "new": tiers.total_new_entries,
            "repair": cluster.read_repairs,
        },
        "unserved": audit.unserved,
        # Requests dropped by grey-failing (flaky) nodes before failover/retry.
        "grey_drops": sum(w.injected_failures for w in flaky_wrappers),
        "failovers": cluster.failovers,
        "repaired_copies": repaired_copies,
        "crashes": injector.crashes,
        "recoveries": injector.recoveries,
        "events": [(e.time, e.action, e.node) for e in injector.applied],
        **replication_metrics(cluster, controller),
    }
