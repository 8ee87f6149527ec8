"""The two placement walks the one sweep replaced, kept verbatim as an oracle.

``ReplicationController.reconcile`` is the only walk that re-places stored
digests: anti-entropy repair and the membership migration both call it.
Before that there were two walks, kept here as functions over a controller
or a manager:

* :func:`repair` -- ``ReplicationController.repair`` as it was: scan the
  live nodes, and for each digest create the copies its live desired set
  lacks, one ``import_entries([(digest, value)])`` per copy.  It never
  dropped a copy outside the desired set.
* :func:`rebuild` -- ``MembershipManager._rebuild`` as it was: scan every
  node plus a departing node's orphans, walk the digests in sorted order,
  create missing copies one ``import_entries`` per copy, then drop each
  copy on a live node outside the desired set with the per-key
  :func:`remove_entry` (one remove frame per digest under persistence).
* :func:`value_of`, :func:`fingerprint_for`, :func:`as_fingerprint` and
  :func:`remove_entry` -- the helpers those walks called.
* :class:`ReferenceReplicationController` and
  :class:`ReferenceMembershipManager` -- the tree's classes with the two
  walks swapped in, so twin clusters can be driven through both.

Membership changes must stay report-, store-, ledger- and log-identical to
these; repair must create as many copies, and its stores must equal the
reference's minus the copies it leaves outside the live desired set.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Set, Tuple

from repro.core.hash_node import HybridHashNode
from repro.core.membership import MembershipManager, MigrationReport
from repro.core.replication import ReplicationController
from repro.dedup.fingerprint import Fingerprint
from repro.storage.fplog import OP_REMOVE


# -- helpers ------------------------------------------------------------------------
def value_of(controller: ReplicationController, digest: bytes, holders: Set[str]):
    for holder in holders:
        value = controller.cluster.nodes[holder].store.get(digest)
        if value is not None:
            return value
    return True


def fingerprint_for(
    controller: ReplicationController, digest: bytes, holders: Set[str]
) -> Fingerprint:
    value = value_of(controller, digest, holders)
    chunk_size = value if isinstance(value, int) else 0
    return Fingerprint(digest=digest, chunk_size=chunk_size)


def as_fingerprint(digest: bytes, value) -> Fingerprint:
    chunk_size = value if isinstance(value, int) else 0
    return Fingerprint(digest=digest, chunk_size=chunk_size)


def remove_entry(node: HybridHashNode, digest: bytes) -> bool:
    """Drop a fingerprint from the node (bloom bits remain set, by design)."""
    node.cache.remove(digest)
    removed = node.store.remove(digest)
    if removed and node.persistence is not None:
        # NodePersistence.log_remove: one frame per removed digest.
        node.persistence.container.append(OP_REMOVE, (digest,))
    return removed


# -- the anti-entropy walk ------------------------------------------------------------
def repair(controller: ReplicationController) -> int:
    """Re-replicate under-replicated fingerprints onto live replica nodes.

    Returns the number of additional copies created.
    """
    created = 0
    placement = controller.placement()
    for digest, holders in placement.items():
        fingerprint = fingerprint_for(controller, digest, holders)
        desired = controller.desired_nodes(fingerprint)
        for node_name in desired:
            if node_name not in holders:
                value = value_of(controller, digest, holders)
                controller.cluster.nodes[node_name].import_entries([(digest, value)])
                holders.add(node_name)
                created += 1
    controller.repairs_performed += created
    return created


# -- the migration walk ---------------------------------------------------------------
def rebuild(
    manager: MembershipManager,
    action: str,
    node_id: str,
    entries_before: int,
    orphans: Optional[Mapping[bytes, object]] = None,
    lost_candidates: Optional[set] = None,
) -> MigrationReport:
    """Incrementally rebuild replica sets after the partition map changed.

    Only fingerprints whose desired set differs from their current
    holders are touched.  Copies are created before drops, so every
    digest keeps at least one live copy throughout.  ``orphans`` carries
    the entries of a departing node (holder set empty after removal);
    ``lost_candidates`` the digests of a *down* departing node, counted
    as ``unreachable`` when no surviving copy exists.
    """
    cluster = manager.cluster
    placement: Dict[bytes, Set[str]] = {}
    values: Dict[bytes, object] = {}
    for name, node in cluster.nodes.items():
        for digest, value in node.export_entries():
            placement.setdefault(digest, set()).add(name)
            values.setdefault(digest, value)
    for digest, value in (orphans or {}).items():
        placement.setdefault(digest, set())
        values.setdefault(digest, value)

    by_target = action == "remove"
    breakdown: Dict[str, int] = {}
    # Copy traffic per (source, target) pair, for the cluster's optional
    # control-plane cost model: each pair becomes one sized transfer over
    # the simulated fabric plus export/import CPU on both ends.
    transfers: Dict[Tuple[str, str], int] = {}
    primary_moves = replica_copies = replica_drops = 0
    unreachable = sum(
        1 for digest in (lost_candidates or ()) if digest not in placement
    )
    # Digest order, not the stores' iteration order: the walk decides the
    # sequence of imports and of the (source, target) pairs charged.
    for digest in sorted(placement):
        holders = placement[digest]
        value = values[digest]
        fingerprint = as_fingerprint(digest, value)
        desired = manager.controller.desired_nodes(fingerprint)
        if not desired:  # every node down: nothing can move
            continue
        missing = [n for n in desired if n not in holders]
        if missing:
            live_holders = sorted(n for n in holders if not cluster.is_down(n))
            if live_holders:
                source = live_holders[0]
            elif orphans is not None and digest in orphans:
                source = node_id  # read from the live departing node
            else:
                unreachable += 1
                continue
            for target in missing:
                cluster.nodes[target].import_entries([(digest, value)])
                if target == desired[0]:
                    primary_moves += 1
                else:
                    replica_copies += 1
                key = target if by_target else source
                breakdown[key] = breakdown.get(key, 0) + 1
                pair = (source, target)
                transfers[pair] = transfers.get(pair, 0) + 1
        for extra in sorted(holders - set(desired)):
            if cluster.is_down(extra):
                continue  # unreadable store; recovery repair reconciles it
            if remove_entry(cluster.nodes[extra], digest):
                replica_drops += 1

    # Charge the copy traffic to the cluster's ledger (none without a
    # cost model): migration CPU and fabric time then contend with lookups.
    if cluster.ledger is not None:
        cluster.ledger.charge_migration(transfers)

    return MigrationReport(
        action=action,
        node=node_id,
        entries_before=entries_before,
        entries_moved=primary_moves + replica_copies,
        source_breakdown=breakdown,
        replication_factor=cluster.config.replication_factor,
        primary_moves=primary_moves,
        replica_copies=replica_copies,
        replica_drops=replica_drops,
        unreachable=unreachable,
    )


# -- the tree's classes with the reference walks swapped in -------------------------
class ReferenceReplicationController(ReplicationController):
    """A controller whose :meth:`repair` is the reference walk."""

    def repair(self) -> int:
        return repair(self)


class ReferenceMembershipManager(MembershipManager):
    """A manager whose migration is the reference walk."""

    def __init__(self, cluster) -> None:
        super().__init__(cluster)
        self.controller = ReferenceReplicationController(cluster)

    def _rebuild(self, action, node_id, entries_before, departed=None):
        # The tree keeps a departing node's ``(entries, readable)``; the
        # reference took its readable entries, or a down node's digests as
        # lost-copy candidates.
        if departed is None:
            return rebuild(self, action, node_id, entries_before)
        entries, readable = departed
        if readable:
            return rebuild(self, action, node_id, entries_before, entries, set())
        return rebuild(self, action, node_id, entries_before, {}, set(entries))
