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
experiment demonstrates both regimes.  Repair and the membership
migration are one sweep, :meth:`ReplicationController.reconcile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

#: ``(copies per (source, target), primary moves, drops, unreachable)``.
Reconciliation = Tuple[Dict[Tuple[str, str], int], int, int, int]

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
        node up this is exactly ``partitioner.owners(fp, factor)``: the
        one-digest view of the rule :meth:`reconcile` places by.
        """
        return self._live_placement()(fingerprint.digest)

    def _live_placement(self) -> Callable[[bytes], List[str]]:
        cluster = self.cluster
        names = cluster.node_names
        down = {name for name in names if cluster.is_down(name)}
        target = min(cluster.config.replication_factor, len(names) - len(down))
        replicas, count = cluster.partitioner.replicas, len(names)

        def desired(digest: bytes) -> List[str]:
            return [name for name in replicas(digest, count) if name not in down][:target]

        return desired

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

    # -- the placement sweep ------------------------------------------------------------
    def reconcile(
        self,
        orphans: Optional[Mapping[bytes, object]] = None,
        departing: Optional[str] = None,
    ) -> Reconciliation:
        """Put every stored digest on exactly its live desired set; uncharged.

        Scans every node once, plus ``orphans`` (a departed node's entries,
        read from ``departing``, or unreachable when it is ``None``), and
        walks the digests in sorted order.  Missing copies are read from the
        first live holder; copies on live nodes outside the set are dropped.
        Each node then gets one ``import_entries`` and, after every import,
        one ``remove_entries``, so every digest keeps a live copy throughout.
        Returns ``(copies per (source, target), primary moves, drops,
        unreachable)``.
        """
        cluster = self.cluster
        nodes = cluster.nodes
        placement: Dict[bytes, Set[str]] = {}
        values: Dict[bytes, object] = {}
        for name, node in nodes.items():
            for digest, value in node.store.items():
                placement.setdefault(digest, set()).add(name)
                values.setdefault(digest, value)
        orphans = orphans or {}
        for digest, value in orphans.items():
            placement.setdefault(digest, set())
            values.setdefault(digest, value)

        desired_of = self._live_placement()
        is_down = cluster.is_down
        copies: Dict[Tuple[str, str], int] = {}
        primary_moves = unreachable = 0
        imports: Dict[str, List[Tuple[bytes, object]]] = {}
        drops: Dict[str, List[bytes]] = {}
        for digest in sorted(placement):
            holders = placement[digest]
            if not holders and departing is None:
                unreachable += 1  # only an unreadable departed node held it
                continue
            desired = desired_of(digest)
            if not desired:  # every node down: nothing can move
                continue
            missing = [name for name in desired if name not in holders]
            if missing:
                live_holders = sorted(name for name in holders if not is_down(name))
                if live_holders:
                    source = live_holders[0]
                elif departing is not None and digest in orphans:
                    source = departing
                else:
                    unreachable += 1
                    continue
                pair = (digest, values[digest])
                for target in missing:
                    imports.setdefault(target, []).append(pair)
                    primary_moves += target == desired[0]
                    copies[source, target] = copies.get((source, target), 0) + 1
            for extra in holders.difference(desired):
                if not is_down(extra):
                    drops.setdefault(extra, []).append(digest)

        for target, pairs in imports.items():
            nodes[target].import_entries(pairs)
        dropped = sum(nodes[name].remove_entries(digests) for name, digests in drops.items())
        return copies, primary_moves, dropped, unreachable

    # -- repair --------------------------------------------------------------------------
    def repair(self) -> int:
        """Anti-entropy: :meth:`reconcile` with no membership change.

        Restores under-replicated fingerprints and drops copies outside the
        live set (a failure's interim copies, once the node is back).
        Returns the number of copies created.
        """
        created = sum(self.reconcile()[0].values())
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
