"""Fault tolerance: anti-entropy repair on top of the cluster's replication.

The paper lists fault tolerance as future work (§V).  The routing layer in
:mod:`repro.core.cluster` already provides the *synchronous* half: every new
fingerprint is written to all live members of its replica set, lookups fail
over per fingerprint to the first live replica, and read repair backfills a
recovered primary on first touch.  This module provides the *asynchronous*
half -- the background sweep a real deployment runs after membership events:

* :class:`ReplicationController` -- verifies and repairs replica sets,
  handles node failure (fail over + re-replication) and rejoin.
* :class:`ReplicaConsistencyReport` -- how many fingerprints are fully
  replicated, under-replicated, or lost.

Why both halves are needed: a fingerprint first written while one of its
replicas was down starts life under-replicated (the cluster cannot write to
a dead node).  Read repair fixes the verdict as soon as any live replica is
consulted, but only an anti-entropy sweep (:meth:`ReplicationController.repair`,
typically triggered from a fault-injection recovery hook or an operator
runbook) restores the full copy count -- without it, a *second* failure that
takes out the singular copy loses the duplicate verdict.  The ``failover``
experiment demonstrates both regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..dedup.fingerprint import Fingerprint
from .cluster import SHHCCluster

__all__ = ["ReplicaConsistencyReport", "ReplicationController"]


@dataclass
class ReplicaConsistencyReport:
    """Replication health across the cluster."""

    replication_factor: int
    total_fingerprints: int = 0
    fully_replicated: int = 0
    under_replicated: int = 0
    lost: int = 0
    copies_histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def is_healthy(self) -> bool:
        """True when every fingerprint has its full replica count."""
        return self.under_replicated == 0 and self.lost == 0


class ReplicationController:
    """Maintains the invariant: every fingerprint on ``replication_factor`` nodes."""

    def __init__(self, cluster: SHHCCluster) -> None:
        if cluster.config.replication_factor < 1:
            raise ValueError("cluster must have replication_factor >= 1")
        self.cluster = cluster
        self.repairs_performed = 0

    # -- inspection ---------------------------------------------------------------------
    def placement(self) -> Dict[bytes, Set[str]]:
        """Map digest -> set of live nodes currently storing it."""
        placement: Dict[bytes, Set[str]] = {}
        for name, node in self.cluster.nodes.items():
            if self.cluster.is_down(name):
                continue
            for digest, _value in node.export_entries():
                placement.setdefault(digest, set()).add(name)
        return placement

    def desired_nodes(self, fingerprint: Fingerprint) -> List[str]:
        """The *live* replica set a fingerprint should occupy right now.

        Walks the successor list past any failed nodes (Chord-style) and
        returns the first live nodes up to the replication factor, so the
        copy count can be restored even while members are down.  With every
        node up this is exactly ``partitioner.owners(fp, factor)``.  The
        membership migration (:class:`~repro.core.membership.MembershipManager`)
        and :meth:`repair` share this definition, which is what makes their
        placements agree.
        """
        cluster = self.cluster
        live_count = sum(1 for n in cluster.node_names if not cluster.is_down(n))
        target = min(cluster.config.replication_factor, live_count)
        candidates = cluster.partitioner.owners(fingerprint, len(cluster.node_names))
        return [n for n in candidates if not cluster.is_down(n)][:target]

    def consistency_report(self) -> ReplicaConsistencyReport:
        """Count fully replicated / under-replicated / lost fingerprints."""
        factor = self.cluster.config.replication_factor
        report = ReplicaConsistencyReport(replication_factor=factor)
        live_nodes = [n for n in self.cluster.node_names if not self.cluster.is_down(n)]
        target = min(factor, len(live_nodes))
        for _digest, holders in self.placement().items():
            copies = len(holders)
            report.total_fingerprints += 1
            report.copies_histogram[copies] = report.copies_histogram.get(copies, 0) + 1
            if copies >= target:
                report.fully_replicated += 1
            elif copies > 0:
                report.under_replicated += 1
            else:
                report.lost += 1
        return report

    # -- repair --------------------------------------------------------------------------
    def repair(self) -> int:
        """Re-replicate under-replicated fingerprints onto live replica nodes.

        Returns the number of additional copies created.
        """
        created = 0
        placement = self.placement()
        for digest, holders in placement.items():
            fingerprint = self._fingerprint_for(digest, holders)
            desired = self.desired_nodes(fingerprint)
            for node_name in desired:
                if node_name not in holders:
                    value = self._value_of(digest, holders)
                    self.cluster.nodes[node_name].import_entries([(digest, value)])
                    holders.add(node_name)
                    created += 1
        self.repairs_performed += created
        return created

    def handle_failure(self, node_name: str) -> int:
        """Mark a node as failed and restore the replication factor."""
        self.cluster.mark_down(node_name)
        return self.repair()

    def handle_recovery(self, node_name: str) -> int:
        """Bring a node back and move its owned fingerprints onto it."""
        self.cluster.mark_up(node_name)
        return self.repair()

    # -- helpers -------------------------------------------------------------------------
    def _value_of(self, digest: bytes, holders: Set[str]):
        for holder in holders:
            value = self.cluster.nodes[holder].store.get(digest)
            if value is not None:
                return value
        return True

    def _fingerprint_for(self, digest: bytes, holders: Set[str]) -> Fingerprint:
        value = self._value_of(digest, holders)
        chunk_size = value if isinstance(value, int) else 0
        return Fingerprint(digest=digest, chunk_size=chunk_size)
