"""Dynamic membership: adding and removing hash nodes with data migration.

The paper lists "dynamic resource scaling" as future work (§V); this module
implements it as the natural extension of the cluster design.  When a node
joins or leaves, the partition map changes and the fingerprints whose
*replica set* changed are migrated between nodes.  The manager reports
exactly how much data moved — split into primary moves, replica copies and
replica drops — which the scaling ablation and the ``elasticity`` scenario
use to compare partitioners and quantify replication traffic under churn.

Replica-aware migration
-----------------------
With ``replication_factor = k`` every fingerprint lives on the first *k*
live nodes of its successor walk (:meth:`ReplicationController.desired_nodes`
— the rule the serving-side batch split :meth:`SHHCCluster._bucket_routed`
uses too, so the layers agree on placement).  A membership change runs the
same sweep as anti-entropy repair,
:meth:`ReplicationController.reconcile`, which recomputes that desired set
per stored digest and touches **only the fingerprints whose set changed**:

* a copy is created on each desired member that lacks one (counted as a
  *primary move* when the member is the new primary, a *replica copy*
  otherwise), reading from any live current holder;
* copies on live nodes that left the desired set are dropped (*replica
  drops*) — but only after the new copies exist, so the distinct count is
  conserved at every instant.  Each node is written once per change: one
  import of its new copies, one remove (one log frame) of its drops.

Interrupted changes
-------------------
Every change puts an ``(action, node)`` intent on
:attr:`MembershipManager.intents` before mutating the cluster and takes it
off after the migration.  The migration itself is idempotent (copies are
puts, drops are recomputed from the current map), so
:meth:`MembershipManager.recover` can finish a change that raised part-way:
each intent still open is re-applied against whatever state survived and
then closed.  A departing node's export stays with its open intent
(:attr:`MembershipManager.departed`), so entries it held the only copy of
are still placed when the migration that was moving them raised.

Churn plans
-----------
:class:`ChurnPlan` is the membership analog of
:class:`~repro.core.fault_injection.FaultPlan`: a declarative, serializable
description of a join/leave schedule that experiment specs can carry
(``{"kind": "join_leave", "events": 6}``) and the ``elasticity`` preset
materializes against a concrete run horizon.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from .cluster import SHHCCluster
from .hash_node import HybridHashNode
from .replication import ReplicationController

__all__ = ["MigrationReport", "MembershipManager", "ChurnEvent", "ChurnPlan"]

#: Actions a churn event may carry.
JOIN = "join"
LEAVE = "leave"
_CHURN_ACTIONS = (JOIN, LEAVE)


@dataclass
class MigrationReport:
    """Outcome of one membership change.

    ``entries_moved`` counts the copies created (primary moves plus replica
    copies) — for ``replication_factor == 1`` this is exactly the classic
    "entries that changed owner" number the scaling ablation reports.
    """

    action: str
    node: str
    entries_before: int
    entries_moved: int
    source_breakdown: Dict[str, int]
    replication_factor: int = 1
    #: Copies created on a fingerprint's *new primary* owner.
    primary_moves: int = 0
    #: Copies created on non-primary members of the new replica set.
    replica_copies: int = 0
    #: Copies dropped from live nodes that left the replica set.
    replica_drops: int = 0
    #: Digests that needed a copy but had no live holder to read from
    #: (their data was already lost to a crash; migration cannot restore it).
    unreachable: int = 0
    #: True when :meth:`MembershipManager.recover` finished this change.
    recovered: bool = False

    @property
    def moved_fraction(self) -> float:
        """Share of pre-change entries that had to move."""
        return self.entries_moved / self.entries_before if self.entries_before else 0.0


class MembershipManager:
    """Coordinates node join/leave and the resulting replica-aware migration."""

    def __init__(self, cluster: SHHCCluster) -> None:
        self.cluster = cluster
        #: Changes begun and not yet finished, as ``(action, node)`` with
        #: action ``"add"`` or ``"remove"``.
        self.intents: List[Tuple[str, str]] = []
        #: What each node of an open ``"remove"`` intent held when it was
        #: detached, and whether its store could be read: ``(entries, readable)``.
        self.departed: Dict[str, Tuple[Dict[bytes, object], bool]] = {}
        # The detached node objects of those intents, closed once their
        # rebuild has succeeded.
        self._detached: Dict[str, HybridHashNode] = {}
        self.controller = ReplicationController(cluster)
        self.reports: List[MigrationReport] = []

    # -- joins --------------------------------------------------------------------------
    def add_node(self, node_id: str) -> MigrationReport:
        """Add a new empty node and rebuild the replica sets it now joins."""
        cluster = self.cluster
        if node_id in cluster.nodes:
            raise ValueError(f"node {node_id!r} already exists")
        entries_before = len(cluster)
        self.intents.append(("add", node_id))
        self._install_node(node_id)
        report = self._rebuild("add", node_id, entries_before)
        self.reports.append(report)
        self.intents.remove(("add", node_id))
        return report

    # -- leaves -------------------------------------------------------------------------
    def remove_node(self, node_id: str) -> MigrationReport:
        """Drain a node's replica responsibilities to the survivors and remove it."""
        cluster = self.cluster
        if node_id not in cluster.nodes:
            raise KeyError(f"unknown node {node_id!r}")
        if len(cluster.nodes) == 1:
            raise ValueError("cannot remove the last node")
        entries_before = len(cluster)
        self.intents.append(("remove", node_id))
        report = self._rebuild("remove", node_id, entries_before, self._uninstall_node(node_id))
        self.reports.append(report)
        self.intents.remove(("remove", node_id))
        self._release_departed(node_id)
        return report

    # -- crash recovery ----------------------------------------------------------------
    def recover(self) -> List[MigrationReport]:
        """Complete the membership changes still open in :attr:`intents`.

        Re-applies each against the current cluster state (the migration is
        idempotent, so work done before the interruption is simply kept)
        and closes it.  Returns one report per completed change.
        """
        reports: List[MigrationReport] = []
        for action, node_id in list(self.intents):
            entries_before = len(self.cluster)
            if action == "add":
                if node_id not in self.cluster.nodes:
                    self._install_node(node_id)
                elif node_id not in self.cluster.partitioner.nodes():
                    self.cluster.partitioner.add_node(node_id)
                report = self._rebuild("add", node_id, entries_before)
            else:
                if node_id in self.cluster.nodes:
                    self._uninstall_node(node_id)
                elif node_id in self.cluster.partitioner.nodes():
                    # Crash landed between the node-dict removal and the
                    # partitioner update (or vice versa); finish the teardown.
                    self.cluster.partitioner.remove_node(node_id)
                departed = self.departed.get(node_id, ({}, True))
                report = self._rebuild("remove", node_id, entries_before, departed)
            report.recovered = True
            self.reports.append(report)
            self.intents.remove((action, node_id))
            if action == "remove":
                # Released only now: a rebuild that raises leaves the
                # entries for the next recovery.
                self._release_departed(node_id)
            reports.append(report)
        return reports

    # -- the migration core -------------------------------------------------------------
    def _install_node(self, node_id: str) -> None:
        cluster = self.cluster
        persistence = cluster.persistence
        cluster.nodes[node_id] = HybridHashNode(
            node_id,
            cluster.config.node,
            cluster.sim,
            persistence=None if persistence is None else persistence.for_node(node_id),
        )
        cluster.partitioner.add_node(node_id)

    def _uninstall_node(self, node_id: str) -> Tuple[Dict[bytes, object], bool]:
        """Detach a node; returns ``(entries, readable)``.

        The pair is also kept in :attr:`departed` until the remove intent
        closes: once the node is gone it is the only record of entries the
        node held the sole copy of.

        A node that is marked down at removal time (decommissioning a dead
        member) has an unreadable store: nothing is copied from it.  Its
        digests with no surviving copy elsewhere surface as ``unreachable``
        in the report (with ``replication_factor >= 2`` the survivors hold
        copies, so nothing is lost).
        """
        cluster = self.cluster
        departing = cluster.nodes[node_id]
        self.departed[node_id] = (dict(departing.store.items()), not cluster.is_down(node_id))
        self._detached[node_id] = departing
        if node_id in cluster.partitioner.nodes():
            # May already be gone when recover() replays a crash that landed
            # between the partitioner update and the node-dict removal.
            cluster.partitioner.remove_node(node_id)
        del cluster.nodes[node_id]
        cluster.mark_up(node_id)  # clear any stale down-marker
        return self.departed[node_id]

    def _release_departed(self, node_id: str) -> None:
        """Forget a removed node once its rebuild has succeeded.

        Closes the node's persistence, which joins an image write still in
        flight and raises that write's error.  The node's directory stays.
        """
        self.departed.pop(node_id, None)
        node = self._detached.pop(node_id, None)
        if node is not None and node.persistence is not None:
            node.persistence.close()

    def _rebuild(
        self,
        action: str,
        node_id: str,
        entries_before: int,
        departed: Optional[Tuple[Dict[bytes, object], bool]] = None,
    ) -> MigrationReport:
        """Re-place data after the partition map changed, and report it.

        One :meth:`ReplicationController.reconcile` sweep moves the data;
        ``departed`` is a departing node's ``(entries, readable)``.
        """
        cluster = self.cluster
        orphans, readable = departed if departed is not None else ({}, True)
        copies, primary_moves, drops, unreachable = self.controller.reconcile(
            orphans, node_id if readable else None
        )

        # Charge the copy traffic to the cluster's ledger (none without a
        # cost model): each (source, target) pair becomes one sized transfer
        # plus export/import CPU, which then contend with lookups.
        if cluster.ledger is not None:
            cluster.ledger.charge_migration(copies)

        by_target = action == "remove"
        breakdown: Dict[str, int] = {}
        for (source, target), count in copies.items():
            key = target if by_target else source
            breakdown[key] = breakdown.get(key, 0) + count
        moved = sum(copies.values())
        return MigrationReport(
            action=action,
            node=node_id,
            entries_before=entries_before,
            entries_moved=moved,
            source_breakdown=breakdown,
            replication_factor=cluster.config.replication_factor,
            primary_moves=primary_moves,
            replica_copies=moved - primary_moves,
            replica_drops=drops,
            unreachable=unreachable,
        )

    # -- reporting ----------------------------------------------------------------------
    def total_moved(self) -> int:
        """Entries moved across all membership changes so far."""
        return sum(report.entries_moved for report in self.reports)

    def total_replica_copies(self) -> int:
        """Replica-copy traffic across all membership changes so far."""
        return sum(report.replica_copies for report in self.reports)


# ------------------------------------------------------------------------- churn plans
@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled membership change: a node joins or leaves at ``time``."""

    time: float
    action: str

    def __post_init__(self) -> None:
        if self.action not in _CHURN_ACTIONS:
            raise ValueError(f"action must be one of {_CHURN_ACTIONS}, got {self.action!r}")
        if self.time < 0:
            raise ValueError("churn event time must be >= 0")


@dataclass(frozen=True)
class ChurnPlan:
    """A declarative, serializable membership-churn scenario.

    Where the elasticity runner scripts concrete (time, action) events, a
    plan describes the *shape* of the churn — how many events, growing or
    shrinking — and is materialized against a run's time horizon by
    :meth:`schedule`.  That makes churn spec-addressable the same way
    :class:`~repro.core.fault_injection.FaultPlan` makes faults
    spec-addressable.

    Kinds
    -----
    ``join_leave``
        Alternating join/leave events starting with a join (the cluster
        oscillates around its initial size).
    ``grow``
        Joins only (scale-out).
    ``shrink``
        Leaves only (scale-in; the runner refuses to shrink below two
        nodes).
    """

    kind: str = "join_leave"
    events: int = 0
    start: float = 1.0

    KINDS = ("join_leave", "grow", "shrink")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {self.kind!r}")
        if self.events < 0:
            raise ValueError("events must be >= 0")
        if self.start < 0:
            raise ValueError("start must be >= 0")

    # -- named constructors -----------------------------------------------------------
    @classmethod
    def none(cls) -> "ChurnPlan":
        """A churn-free plan."""
        return cls(events=0)

    @classmethod
    def join_leave(cls, events: int, start: float = 1.0) -> "ChurnPlan":
        """Alternating joins and leaves, ``events`` changes in total."""
        return cls(kind="join_leave", events=events, start=start)

    @classmethod
    def grow(cls, events: int, start: float = 1.0) -> "ChurnPlan":
        """``events`` consecutive joins."""
        return cls(kind="grow", events=events, start=start)

    @classmethod
    def shrink(cls, events: int, start: float = 1.0) -> "ChurnPlan":
        """``events`` consecutive leaves."""
        return cls(kind="shrink", events=events, start=start)

    # -- materialization --------------------------------------------------------------
    @property
    def has_churn(self) -> bool:
        return self.events > 0

    def schedule(self, horizon: float) -> List[ChurnEvent]:
        """Concrete churn events evenly spaced over ``[start, horizon)``."""
        if not self.has_churn:
            return []
        if horizon <= self.start:
            raise ValueError(
                f"horizon {horizon:g} leaves no room for churn starting at t={self.start:g}"
            )
        step = (horizon - self.start) / self.events
        out: List[ChurnEvent] = []
        for index in range(self.events):
            if self.kind == "grow":
                action = JOIN
            elif self.kind == "shrink":
                action = LEAVE
            else:
                action = JOIN if index % 2 == 0 else LEAVE
            out.append(ChurnEvent(time=self.start + index * step, action=action))
        return out

    # -- serialization ----------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (round-trips through :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ChurnPlan":
        unknown = set(payload) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown ChurnPlan keys: {sorted(unknown)}")
        return cls(**payload)
