"""Timed control-plane experiments -- latency *during* outages and churn.

The failover and elasticity experiments answer "does the cluster stay
correct?"; these runs answer the paper's harder question: "what does lookup
latency look like *while* the control plane is working?".  A mixed backup
workload is streamed through an immediate-mode cluster built with a
:class:`~repro.simulation.costmodel.CostModel`, so every replica write,
read repair and migration copy is charged as deferred CPU + fabric time on
the target node's timeline (see docs/control_plane.md).  Batches arrive on
an open-loop clock calibrated so the busiest node runs at ``offered_load``
utilisation in steady state; when a node crashes (``run_failover_timed``)
or a membership change migrates entries (``run_churn_timed``), the
surviving/affected nodes queue up and the per-phase latency tallies
capture the replication/elasticity tax directly.  The batch walk and the
phase each disruption source assigns a batch (``steady``, ``degraded``,
``migrating``, ``recovering``; batch 0 is ``warmup`` and excluded from the
tax comparison) live in :mod:`.replay`.

The headline figure is ``p99_tax``: degraded (or migrating) p99 lookup
latency divided by steady-state p99 -- the Figure-5-style curve the
``failover_timed``/``churn_timed`` scenario presets sweep against
replication factor and churn rate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...core.cluster import SHHCCluster
from ...core.config import ClusterConfig, HashNodeConfig
from ...core.fault_injection import FaultInjector, FaultPlan
from ...core.membership import ChurnPlan
from ...dedup.fingerprint import Fingerprint
from ...simulation.costmodel import CostModel
from ...workloads.mixer import WorkloadMix
from .elasticity import DEFAULT_CHURN_EVENTS
from .replay import (
    DEGRADED_PHASE,
    MIGRATING_PHASE,
    MIN_NODES,
    STEADY_PHASE,
    Churn,
    Outages,
    ReplayAudit,
    audit_metrics,
    cluster_config,
    make_batches,
    replay,
    require_room,
)

__all__ = [
    "calibrate_interval",
    "read_ledger",
    "p99_tax",
    "run_failover_timed",
    "run_churn_timed",
]

#: Default outage density for ``run_failover_timed`` (fraction of the run
#: during which some node is down, as in ``FaultPlan.rolling_outage``).
DEFAULT_OUTAGE_DENSITY = 0.3


def read_ledger(cluster: SHHCCluster, interval: float, extra: Dict[str, int]) -> Dict[str, Any]:
    """What a timed run reads off its ledger: the clock, per-phase latency, the counters.

    ``interval`` is the open-loop batch arrival interval (seconds).  Every
    counter -- the ledger's, the run's ``extra`` ones, read repairs and
    failovers -- is a metric of its own, and ``counters`` lists their names.
    """
    ledger = cluster.ledger
    end = ledger.end_time()
    metrics: Dict[str, Any] = {
        "arrival_interval_us": interval * 1e6,
        # Served lookups per second of virtual time over the whole run.
        "throughput": ledger.counters["lookups"] / end if end > 0 else 0.0,
        # Control-plane CPU seconds deferred onto node timelines.
        "control_plane_cpu_seconds": ledger.control_plane_cpu_seconds,
    }
    for name, tally in ledger.phases.items():
        metrics[f"{name}_lookups"] = tally.count
        metrics[f"{name}_mean_latency_us"] = tally.mean * 1e6
        metrics[f"{name}_p50_latency_us"] = tally.percentile(0.50) * 1e6
        metrics[f"{name}_p99_latency_us"] = tally.percentile(0.99) * 1e6
    counters = {
        **ledger.counters,
        **extra,
        "read_repairs": cluster.read_repairs,
        "failovers": cluster.failovers,
    }
    metrics["counters"] = sorted(counters)
    metrics.update(counters)
    return metrics


def p99_tax(cluster: SHHCCluster, phase: str) -> float:
    """``phase``'s p99 over steady-state p99 on the ledger (1.0 = control plane free)."""
    steady, taxed = cluster.ledger.phases.get(STEADY_PHASE), cluster.ledger.phases.get(phase)
    if steady is None or taxed is None:
        return 1.0
    steady_p99 = steady.percentile(0.99)
    return taxed.percentile(0.99) / steady_p99 if steady_p99 > 0.0 else 1.0


def _timed_metrics(cluster: SHHCCluster, audit: ReplayAudit, interval: float, batch_size: int,
                   offered_load: float, taxed_phase: str, extra: Dict[str, int]) -> Dict[str, Any]:
    """A timed control-plane run's metrics; ``taxed_phase`` is the one ``p99_tax`` compares."""
    return {
        **audit_metrics(audit, cluster.config, batch_size),
        "offered_load": offered_load,
        "p99_tax": p99_tax(cluster, taxed_phase),
        "unserved": audit.unserved,
        **read_ledger(cluster, interval, extra),
    }


def calibrate_interval(
    config: ClusterConfig,
    model: CostModel,
    batches: List[List[Fingerprint]],
    offered_load: float,
) -> float:
    """Open-loop arrival interval targeting ``offered_load`` utilisation.

    Runs the whole workload through a fault-free probe cluster back-to-back
    (arrival clock pinned at zero), so the ledger's end time is the busiest
    node's total demand -- lookups *and* steady-state replica propagation
    included.  The measured run then spaces batches so that demand fills
    ``offered_load`` of the timeline, leaving headroom that only outage
    shift or migration backlog can consume.
    """
    if not 0.0 < offered_load < 1.0:
        raise ValueError("offered_load must be in (0, 1)")
    probe = SHHCCluster(config, cost_model=model)
    replay(probe, batches, Outages.none(probe), ReplayAudit())
    demand = probe.ledger.end_time() / len(batches)
    if demand <= 0.0:
        raise RuntimeError("calibration probe measured zero service demand")
    return demand / offered_load


def run_failover_timed(
    scale: float = 0.002,
    num_nodes: int = 4,
    replication_factor: int = 2,
    virtual_nodes: int = 64,
    batch_size: int = 256,
    offered_load: float = 0.7,
    mix: Optional[WorkloadMix] = None,
    fault_plan: Optional[FaultPlan] = None,
    outage_density: Optional[float] = None,
    node_config: Optional[HashNodeConfig] = None,
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Measure the lookup-latency distribution *during* node outages.

    Streams the workload on an open-loop arrival clock while a
    :class:`~repro.core.fault_injection.FaultPlan` (default: a rolling
    outage covering ``DEFAULT_OUTAGE_DENSITY`` of the run) crashes and
    recovers nodes.  While a node is down its traffic shifts to the
    surviving replicas, whose timelines back up beyond the calibrated
    ``offered_load``; the ``degraded`` phase records those latencies
    separately from ``steady``, and ``p99_tax`` is their p99 ratio --
    strictly above 1 whenever the outage actually concentrated load.

    Fingerprints whose whole replica set is down are not sent (counted as
    ``unserved``) and every verdict is audited against the oracle, as in
    :func:`~repro.analysis.experiments.failover.run_failover`.  Returns the
    ``failover_timed`` preset's metrics.
    """
    if fault_plan is not None and outage_density is not None:
        raise ValueError("pass at most one of fault_plan, outage_density")
    if fault_plan is None:
        fault_plan = FaultPlan.rolling_outage(
            outage_density if outage_density is not None else DEFAULT_OUTAGE_DENSITY
        )
    model = cost_model if cost_model is not None else CostModel()
    fingerprints, batches = make_batches(mix, scale, batch_size, seed)
    if fault_plan.has_outages:
        require_room(batches, batch_size, fault_plan.start, "an outage plan")
    config = cluster_config(
        num_nodes, replication_factor, virtual_nodes, node_config, len(fingerprints)
    )
    interval = calibrate_interval(config, model, batches, offered_load)

    cluster = SHHCCluster(config, cost_model=model)
    schedule = fault_plan.schedule(cluster.node_names, horizon=float(len(batches)))
    injector = FaultInjector(cluster, schedule)
    audit = ReplayAudit()
    replay(cluster, batches, Outages(injector), audit, interval=interval)
    return _timed_metrics(cluster, audit, interval, batch_size, offered_load, DEGRADED_PHASE,
                          {"crashes": injector.crashes, "recoveries": injector.recoveries})


def run_churn_timed(
    scale: float = 0.002,
    num_nodes: int = 4,
    replication_factor: int = 2,
    virtual_nodes: int = 64,
    batch_size: int = 256,
    offered_load: float = 0.7,
    mix: Optional[WorkloadMix] = None,
    churn_plan: Optional[ChurnPlan] = None,
    node_config: Optional[HashNodeConfig] = None,
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Measure the lookup-latency distribution *during* membership churn.

    Like :func:`run_failover_timed`, but the disturbance is a
    :class:`~repro.core.membership.ChurnPlan` (default: alternating
    join/leave).  Each membership change's copy traffic is charged to the
    source and target nodes' timelines (export CPU, fabric transfer,
    import CPU), so batches right after an event queue behind the
    migration; they are recorded under the ``migrating`` phase until the
    backlog drains back under one arrival interval.  Returns the
    ``churn_timed`` preset's metrics.
    """
    if num_nodes < MIN_NODES:
        raise ValueError(f"num_nodes must be >= {MIN_NODES}")
    plan = churn_plan if churn_plan is not None else ChurnPlan.join_leave(DEFAULT_CHURN_EVENTS)
    model = cost_model if cost_model is not None else CostModel()
    fingerprints, batches = make_batches(mix, scale, batch_size, seed)
    if plan.has_churn:
        require_room(batches, batch_size, plan.start, "a churn plan")
    config = cluster_config(
        num_nodes, replication_factor, virtual_nodes, node_config, len(fingerprints)
    )
    interval = calibrate_interval(config, model, batches, offered_load)

    cluster = SHHCCluster(config, cost_model=model)
    churn = Churn(cluster, plan, horizon=float(len(batches)))
    audit = ReplayAudit()
    replay(cluster, batches, churn, audit, interval=interval)
    return _timed_metrics(
        cluster,
        audit,
        interval,
        batch_size,
        offered_load,
        MIGRATING_PHASE,
        {
            "joins": churn.joins,
            "leaves": churn.leaves,
            "skipped_events": churn.skipped,
            "entries_moved": churn.entries_moved,
        },
    )
