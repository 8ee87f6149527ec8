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

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...core.cluster import SHHCCluster
from ...core.config import ClusterConfig, HashNodeConfig
from ...core.fault_injection import FaultInjector, FaultPlan
from ...core.membership import ChurnPlan
from ...dedup.fingerprint import Fingerprint
from ...simulation.costmodel import CostModel
from ...simulation.stats import LatencyTally
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
    cluster_config,
    make_batches,
    replay,
    require_room,
)

__all__ = [
    "PhaseLatency",
    "TimedResult",
    "ControlPlaneResult",
    "calibrate_interval",
    "run_failover_timed",
    "run_churn_timed",
]

#: Default outage density for ``run_failover_timed`` (fraction of the run
#: during which some node is down, as in ``FaultPlan.rolling_outage``).
DEFAULT_OUTAGE_DENSITY = 0.3


@dataclass(frozen=True)
class PhaseLatency:
    """Lookup-latency summary for one phase of a timed run (seconds)."""

    phase: str
    count: int
    mean: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_tally(cls, phase: str, tally: LatencyTally) -> "PhaseLatency":
        return cls(
            phase=phase,
            count=tally.count,
            mean=tally.mean,
            p50=tally.percentile(0.50),
            p95=tally.percentile(0.95),
            p99=tally.percentile(0.99),
        )


@dataclass(kw_only=True)
class TimedResult(ReplayAudit):
    """What every timed run reads off its cluster's ledger."""

    #: Open-loop batch arrival interval (seconds), calibrated from a
    #: fault-free probe run of the same workload.
    interval: float = 0.0
    phases: Dict[str, PhaseLatency] = field(default_factory=dict)
    #: Served lookups per second of virtual time over the whole run.
    throughput: float = 0.0
    #: Control-plane CPU seconds deferred onto node timelines.
    control_plane_cpu_seconds: float = 0.0
    #: Ledger + scenario counters (replica_writes, migration_entries, ...).
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def steady(self) -> Optional[PhaseLatency]:
        return self.phases.get(STEADY_PHASE)

    def p99_over_steady(self, phase: str) -> float:
        """``phase``'s p99 over steady-state p99 (1.0 = control plane free)."""
        steady, taxed = self.steady, self.phases.get(phase)
        if steady is None or taxed is None or steady.p99 <= 0.0:
            return 1.0
        return taxed.p99 / steady.p99

    def read_ledger(self, cluster: SHHCCluster, extra: Dict[str, int]) -> None:
        """Fill phases, throughput and counters once the replay is over."""
        ledger = cluster.ledger
        for name, tally in ledger.phases.items():
            self.phases[name] = PhaseLatency.from_tally(name, tally)
        end = ledger.end_time()
        served = ledger.counters["lookups"]
        self.throughput = served / end if end > 0 else 0.0
        self.control_plane_cpu_seconds = ledger.control_plane_cpu_seconds
        self.counters = dict(ledger.counters)
        self.counters.update(extra)
        self.counters["read_repairs"] = cluster.read_repairs
        self.counters["failovers"] = cluster.failovers


@dataclass
class ControlPlaneResult(TimedResult):
    """Outcome of one timed control-plane run."""

    num_nodes: int
    replication_factor: int
    virtual_nodes: int
    batch_size: int
    offered_load: float
    headline_phase: str  # the taxed phase: degraded or migrating

    @property
    def taxed(self) -> Optional[PhaseLatency]:
        return self.phases.get(self.headline_phase)

    @property
    def p99_tax(self) -> float:
        """Taxed-phase p99 over steady-state p99 (1.0 = control plane free)."""
        return self.p99_over_steady(self.headline_phase)


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
) -> ControlPlaneResult:
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
    :func:`~repro.analysis.experiments.failover.run_failover`.
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
    result = ControlPlaneResult(
        num_nodes=num_nodes,
        replication_factor=replication_factor,
        virtual_nodes=virtual_nodes,
        batch_size=batch_size,
        offered_load=offered_load,
        headline_phase=DEGRADED_PHASE,
        fingerprints_processed=len(fingerprints),
        batches=len(batches),
        interval=interval,
    )
    replay(cluster, batches, Outages(injector), result, interval=interval)
    result.read_ledger(cluster, {"crashes": injector.crashes, "recoveries": injector.recoveries})
    return result


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
) -> ControlPlaneResult:
    """Measure the lookup-latency distribution *during* membership churn.

    Like :func:`run_failover_timed`, but the disturbance is a
    :class:`~repro.core.membership.ChurnPlan` (default: alternating
    join/leave).  Each membership change's copy traffic is charged to the
    source and target nodes' timelines (export CPU, fabric transfer,
    import CPU), so batches right after an event queue behind the
    migration; they are recorded under the ``migrating`` phase until the
    backlog drains back under one arrival interval.
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
    result = ControlPlaneResult(
        num_nodes=num_nodes,
        replication_factor=replication_factor,
        virtual_nodes=virtual_nodes,
        batch_size=batch_size,
        offered_load=offered_load,
        headline_phase=MIGRATING_PHASE,
        fingerprints_processed=len(fingerprints),
        batches=len(batches),
        interval=interval,
    )
    replay(cluster, batches, churn, result, interval=interval)
    result.read_ledger(
        cluster,
        {
            "joins": churn.joins,
            "leaves": churn.leaves,
            "skipped_events": churn.skipped,
            "entries_moved": churn.entries_moved,
        },
    )
    return result
