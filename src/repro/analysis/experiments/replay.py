"""The disrupted-replay driver behind the five disruption experiments.

``failover``, ``elasticity``, ``failover_timed``, ``churn_timed`` and
``restart`` are one program: stream a Table-I mix through a replicated
:class:`~repro.core.cluster.SHHCCluster` in client-sized batches while
something fires on the logical time axis of batch indices, and check every
verdict against an exact oracle (the set of digests presented so far).
This module holds the parts they share -- :func:`make_batches`,
:func:`cluster_config` (with the experiments' one default node tier,
:func:`default_node_config`) and the batch walk :func:`replay` -- and the
two *disruption sources* the walk can be handed:

* :class:`Outages` -- a :class:`~repro.core.fault_injection.FaultInjector`
  (crash/recover for the failover runs, kill/restart for ``restart``, an
  empty schedule for fault-free baselines and calibration probes);
* :class:`Churn` -- a :class:`~repro.core.membership.ChurnPlan` applied
  through a :class:`~repro.core.membership.MembershipManager`.

What differs between the experiments is which source they pass and what
they read off the cluster afterwards, not a flag on the loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ...core.cluster import SHHCCluster
from ...core.config import ClusterConfig, HashNodeConfig
from ...core.fault_injection import RESTART, FaultInjector, FaultSchedule
from ...core.membership import (
    JOIN,
    ChurnEvent,
    ChurnPlan,
    MembershipManager,
    MigrationReport,
)
from ...core.replication import ReplicationController
from ...dedup.fingerprint import Fingerprint
from ...dedup.index import LookupResult
from ...workloads.mixer import WorkloadMix, table_i_mix

__all__ = [
    "WARMUP_PHASE",
    "STEADY_PHASE",
    "DEGRADED_PHASE",
    "MIGRATING_PHASE",
    "RECOVERING_PHASE",
    "MIN_NODES",
    "ReplayAudit",
    "Outages",
    "Churn",
    "default_node_config",
    "cluster_config",
    "make_batches",
    "require_room",
    "replay",
    "fill_replication",
]

#: Ledger phase labels of a timed run (see docs/control_plane.md).  Batch 0
#: is always ``warmup``; the disruption source labels the rest.
WARMUP_PHASE = "warmup"
STEADY_PHASE = "steady"
DEGRADED_PHASE = "degraded"
MIGRATING_PHASE = "migrating"
RECOVERING_PHASE = "recovering"

#: Churn never shrinks below this many nodes (a one-node cluster cannot lose one).
MIN_NODES = 2


def default_node_config(expected_items: int, floor: int = 1_000_000) -> HashNodeConfig:
    """The experiments' node tier, sized for the run about to be replayed.

    A 200k-entry RAM cache, and a bloom filter for twice the
    ``expected_items`` the run will present but never fewer than ``floor``
    (small runs share one filter geometry, so their tables stay comparable).
    """
    return HashNodeConfig(
        ram_cache_entries=200_000,
        bloom_expected_items=max(floor, expected_items * 2),
    )


def cluster_config(
    num_nodes: int,
    replication_factor: int,
    virtual_nodes: int,
    node_config: Optional[HashNodeConfig],
    expected_items: int,
) -> ClusterConfig:
    """The cluster a disruption run builds (``node_config`` overrides the default tier)."""
    return ClusterConfig(
        num_nodes=num_nodes,
        node=node_config if node_config is not None else default_node_config(expected_items),
        virtual_nodes=virtual_nodes,
        replication_factor=replication_factor,
    )


def make_batches(
    mix: Optional[WorkloadMix], scale: float, batch_size: int, seed: int
) -> Tuple[List[Fingerprint], List[List[Fingerprint]]]:
    """The interleaved mix at ``scale``, whole and cut into client batches."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    workload = mix if mix is not None else table_i_mix(seed=seed)
    fingerprints: List[Fingerprint] = list(workload.interleaved(scale=scale))
    batches = [
        fingerprints[start:start + batch_size]
        for start in range(0, len(fingerprints), batch_size)
    ]
    return fingerprints, batches


def require_room(batches: Sequence, batch_size: int, start: float, plan: str) -> None:
    """Reject a run with no batch left after a plan's start time.

    Disruption schedules live on the batch-index axis, so a run this short
    cannot place an event; raised before any (expensive) replay.
    """
    if len(batches) <= start:
        raise ValueError(
            f"only {len(batches)} batch(es) at batch_size={batch_size}: too short for "
            f"{plan} starting at t={start:g}; lower batch_size or raise scale"
        )


@dataclass(kw_only=True)
class ReplayAudit:
    """What :func:`replay` counts, whatever the disruption.

    The base of every disruption experiment's result (keyword-only, so the
    results keep their own positional fields).
    """

    fingerprints_processed: int = 0
    batches: int = 0
    #: Lookups never sent because the fingerprint's whole replica set was
    #: down (replication 1 under outage); the client got no verdict.
    unserved: int = 0
    #: Duplicates misreported as new (a replica missed a write).
    false_uniques: int = 0
    #: New fingerprints misreported as duplicates (data loss!).
    false_duplicates: int = 0

    @property
    def dedup_errors(self) -> int:
        """Verdicts that differ from the exact oracle."""
        return self.false_uniques + self.false_duplicates

    @property
    def accuracy(self) -> float:
        """Fraction of the stream that got the correct verdict (1.0 = no loss).

        Unserved lookups count as errors: no verdict at all is at least as
        bad as a wrong one.
        """
        if not self.fingerprints_processed:
            return 1.0
        return 1.0 - (self.dedup_errors + self.unserved) / self.fingerprints_processed


def fill_replication(result, cluster: SHHCCluster, controller: ReplicationController) -> None:
    """Read the replication tail every correctness run reports off ``cluster``."""
    result.read_repairs = cluster.read_repairs
    result.replica_inserts = sum(
        node.counters["replica_inserts"] for node in cluster.nodes.values()
    )
    result.distinct = cluster.distinct_fingerprints()
    result.total_stored = cluster.total_stored
    report = controller.consistency_report()
    result.fully_replicated = report.fully_replicated
    result.under_replicated = report.under_replicated
    result.lost = report.lost


def _any_down(cluster: SHHCCluster) -> bool:
    return any(cluster.is_down(name) for name in cluster.node_names)


class Outages:
    """A :class:`FaultInjector` as a disruption source.

    In a timed run a batch is ``degraded`` while any node is down and
    ``recovering`` from the batch a killed node restarts at until its
    replay backlog has drained below one arrival interval.
    """

    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector
        self._restarted_at: Optional[int] = None

    @classmethod
    def none(cls, cluster: SHHCCluster) -> "Outages":
        """The undisturbed run: fault-free baselines and calibration probes."""
        return cls(FaultInjector(cluster, FaultSchedule()))

    def before_batch(self, index: int) -> None:
        if any(event.action == RESTART for event in self.injector.advance(index)):
            self._restarted_at = index

    def phase(self, index: int, backlog: float, interval: float) -> str:
        if _any_down(self.injector.cluster):
            return DEGRADED_PHASE
        if self._restarted_at is not None:
            if index == self._restarted_at or backlog > interval:
                return RECOVERING_PHASE
            self._restarted_at = None  # replay backlog drained; back to steady
        return STEADY_PHASE

    def finish(self) -> None:
        """Recover any node still down past the last batch."""
        self.injector.drain()


class Churn:
    """A :class:`ChurnPlan` as a disruption source.

    Joins add fresh nodes (``hashnode-<next>``); leaves remove the
    lexicographically first current node, which retires the original
    members one by one -- the worst case for data movement.  A leave that
    would shrink the cluster below :data:`MIN_NODES` is skipped.  In a
    timed run a batch is ``migrating`` when a change fired just before it
    or copy traffic is still queued beyond one arrival interval.
    """

    def __init__(self, cluster: SHHCCluster, plan: ChurnPlan, horizon: float) -> None:
        self.cluster = cluster
        self.manager = MembershipManager(cluster)
        #: Events not yet applied, in time order.
        self.pending = deque(plan.schedule(horizon=horizon) if plan.has_churn else ())
        #: ``(event, node, MigrationReport)`` per applied change.
        self.applied: List[Tuple[ChurnEvent, str, MigrationReport]] = []
        self.skipped = 0
        self._next_index = cluster.num_nodes
        self._fired = False

    @property
    def joins(self) -> int:
        return sum(1 for event, _, _ in self.applied if event.action == JOIN)

    @property
    def leaves(self) -> int:
        return len(self.applied) - self.joins

    @property
    def entries_moved(self) -> int:
        return sum(report.entries_moved for _, _, report in self.applied)

    def _apply(self, event: ChurnEvent) -> None:
        if event.action == JOIN:
            node_id = f"{self.cluster.config.node_name_prefix}-{self._next_index}"
            self._next_index += 1
            report = self.manager.add_node(node_id)
        elif len(self.cluster.nodes) <= MIN_NODES:
            self.skipped += 1
            return
        else:
            node_id = min(self.cluster.nodes)
            report = self.manager.remove_node(node_id)
        self.applied.append((event, node_id, report))
        self._fired = True

    def before_batch(self, index: int) -> None:
        self._fired = False
        while self.pending and self.pending[0].time <= index:
            self._apply(self.pending.popleft())

    def phase(self, index: int, backlog: float, interval: float) -> str:
        return MIGRATING_PHASE if self._fired or backlog > interval else STEADY_PHASE

    def finish(self) -> None:
        """Events scheduled past the last batch still fire (end of the run)."""
        while self.pending:
            self._apply(self.pending.popleft())


def replay(
    cluster: SHHCCluster,
    batches: Sequence[Sequence[Fingerprint]],
    disruption: Union[Outages, Churn],
    audit: ReplayAudit,
    interval: Optional[float] = None,
    observe: Optional[Callable[[List[LookupResult]], None]] = None,
) -> None:
    """Replay ``batches`` through ``cluster`` while ``disruption`` fires.

    Before batch ``i`` the disruption source applies every event due at
    ``t <= i``.  Fingerprints whose whole replica set is down are not sent
    (the client cannot reach any holder): they are tallied as
    ``audit.unserved`` but still enter the oracle, because the client *did*
    present them -- a copy the cluster failed to store shows up as a false
    unique on the fingerprint's next occurrence.  Every verdict that comes
    back is compared with the oracle and mismatches land in ``audit``;
    ``observe`` then sees the batch's outcomes.

    With ``interval`` (a cluster built with a cost model) the walk is
    timed: batch ``i`` arrives at ``i * interval`` on the cluster's ledger
    and is recorded under the phase the disruption source names (batch 0
    is always ``warmup``).  Without it the arrival clock stays at zero.
    """
    ledger = cluster.ledger if interval is not None else None
    seen: set = set()
    for index, batch in enumerate(batches):
        if ledger is not None:
            ledger.advance_to(index * interval)
        disruption.before_batch(index)
        if ledger is not None:
            ledger.set_phase(
                WARMUP_PHASE
                if index == 0
                else disruption.phase(index, ledger.backlog(), interval)
            )
        if _any_down(cluster):
            servable = []
            for fingerprint in batch:
                if any(not cluster.is_down(n) for n in cluster.replica_set(fingerprint)):
                    servable.append(fingerprint)
                else:
                    audit.unserved += 1
                    seen.add(fingerprint.digest)
        else:
            servable = batch
        outcomes = cluster.lookup_batch(servable)
        for outcome in outcomes:
            digest = outcome.fingerprint.digest
            expected = digest in seen
            seen.add(digest)
            if outcome.is_duplicate != expected:
                if expected:
                    audit.false_uniques += 1
                else:
                    audit.false_duplicates += 1
        if observe is not None:
            observe(outcomes)
    disruption.finish()
