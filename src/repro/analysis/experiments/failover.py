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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
from ..reporting import format_table
from .replay import (
    Outages,
    ReplayAudit,
    cluster_config,
    fill_replication,
    make_batches,
    replay,
    require_room,
)

__all__ = ["FailoverResult", "run_failover"]


@dataclass
class FailoverResult(ReplayAudit):
    """Outcome of one failover run (plus its fault-free baseline)."""

    num_nodes: int
    replication_factor: int
    virtual_nodes: int
    batch_size: int
    crashes: int = 0
    recoveries: int = 0
    read_repairs: int = 0
    failovers: int = 0
    replica_inserts: int = 0
    repaired_copies: int = 0
    distinct: int = 0
    total_stored: int = 0
    fully_replicated: int = 0
    under_replicated: int = 0
    lost: int = 0
    mean_latency_faulty: float = 0.0
    mean_latency_baseline: float = 0.0
    events: List[Tuple[float, str, str]] = field(default_factory=list)
    #: Requests dropped by grey-failing (flaky) nodes before failover/retry.
    grey_drops: int = 0
    tier_hits: Dict[str, int] = field(default_factory=dict)
    latency_percentiles_faulty: Dict[str, float] = field(default_factory=dict)
    latency_percentiles_baseline: Dict[str, float] = field(default_factory=dict)
    fault_plan: Optional[FaultPlan] = None

    @property
    def latency_overhead(self) -> float:
        """Relative mean-latency cost of running through failures."""
        if self.mean_latency_baseline <= 0.0:
            return 0.0
        return self.mean_latency_faulty / self.mean_latency_baseline - 1.0

    def render(self) -> str:
        rows = [
            ["nodes", self.num_nodes],
            ["replication factor", self.replication_factor],
            ["virtual nodes", self.virtual_nodes],
            ["batch size", self.batch_size],
            ["fingerprints", self.fingerprints_processed],
            ["batches", self.batches],
            ["crashes injected", self.crashes],
            ["recoveries", self.recoveries],
            ["dedup errors", self.dedup_errors],
            ["  false uniques", self.false_uniques],
            ["  false duplicates", self.false_duplicates],
            ["dedup accuracy %", round(self.accuracy * 100.0, 4)],
            ["read repairs", self.read_repairs],
            ["failovers", self.failovers],
            ["replica inserts", self.replica_inserts],
            ["repaired copies", self.repaired_copies],
            ["distinct fingerprints", self.distinct],
            ["total stored copies", self.total_stored],
            ["fully replicated", self.fully_replicated],
            ["under-replicated", self.under_replicated],
            ["lost", self.lost],
        ]
        # Sweep-era counters appear only when the scenario exercised them,
        # keeping legacy (clean rolling outage, k>=2) output byte-identical.
        if self.unserved:
            rows.append(["unserved lookups", self.unserved])
        if self.grey_drops:
            rows.append(["grey drops", self.grey_drops])
        rows += [
            ["mean latency (faulty) us", round(self.mean_latency_faulty * 1e6, 2)],
            ["mean latency (baseline) us", round(self.mean_latency_baseline * 1e6, 2)],
            ["latency overhead %", round(self.latency_overhead * 100.0, 2)],
        ]
        table = format_table(
            ["metric", "value"],
            rows,
            title=(
                f"Failover: dedup accuracy under injected node failures "
                f"({self.num_nodes} nodes, k={self.replication_factor})"
            ),
        )
        timeline = ", ".join(f"t={t:g} {action} {node}" for t, action, node in self.events)
        return table + ("\n\nschedule: " + timeline if timeline else "")


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
) -> FailoverResult:
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

    def measured_replay(cluster: SHHCCluster, disruption: Outages, audit: ReplayAudit):
        """Mean and p50/p95/p99 of every lookup's latency (0.0, {} if none)."""
        tally = LatencyTally()
        replay(
            cluster,
            batches,
            disruption,
            audit,
            observe=lambda outcomes: tally.add_many(o.latency for o in outcomes),
        )
        if not tally.count:
            return 0.0, {}
        return tally.mean, {f"p{q}": tally.percentile(q / 100.0) for q in (50, 95, 99)}

    # -- fault-free baseline (latency reference; audit discarded) --------------------
    baseline = SHHCCluster(config)
    baseline_latency, baseline_percentiles = measured_replay(
        baseline, Outages.none(baseline), ReplayAudit()
    )

    # -- faulty run -----------------------------------------------------------------
    cluster = SHHCCluster(config)
    controller = ReplicationController(cluster)
    result = FailoverResult(
        num_nodes=num_nodes,
        replication_factor=replication_factor,
        virtual_nodes=virtual_nodes,
        batch_size=batch_size,
        fingerprints_processed=len(fingerprints),
        batches=len(batches),
        mean_latency_baseline=baseline_latency,
        latency_percentiles_baseline=baseline_percentiles,
        fault_plan=fault_plan,
    )

    def _on_recovery(_node: str) -> None:
        if repair_on_recovery:
            result.repaired_copies += controller.repair()

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

    result.mean_latency_faulty, result.latency_percentiles_faulty = measured_replay(
        cluster, Outages(injector), result
    )
    result.grey_drops = sum(w.injected_failures for w in flaky_wrappers)
    result.crashes = injector.crashes
    result.recoveries = injector.recoveries
    result.failovers = cluster.failovers
    result.events = [(e.time, e.action, e.node) for e in injector.applied]
    metrics = cluster.metrics()
    result.tier_hits = {
        "ram": metrics.ram_hits,
        "ssd": metrics.ssd_hits,
        "new": metrics.total_new_entries,
        "repair": cluster.read_repairs,
    }
    fill_replication(result, cluster, controller)
    return result
