"""Tests for dynamic membership (scaling) and the replication controller."""

from __future__ import annotations

import os

import pytest

from oracles.placement_reference import as_fingerprint
from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.membership import MembershipManager
from repro.core.persistence import PersistencePolicy
from repro.core.replication import ReplicationController
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.storage.fplog import OP_REMOVE, FingerprintLog


def loaded_cluster(num_nodes=4, replication=1, virtual_nodes=0, entries=800) -> SHHCCluster:
    config = ClusterConfig(
        num_nodes=num_nodes,
        node=HashNodeConfig(ram_cache_entries=512, bloom_expected_items=50_000, ssd_buckets=1 << 10),
        replication_factor=replication,
        virtual_nodes=virtual_nodes,
    )
    cluster = SHHCCluster(config)
    cluster.lookup_batch([synthetic_fingerprint(i) for i in range(entries)])
    return cluster


class TestMembershipManager:
    def test_add_node_preserves_every_fingerprint(self):
        cluster = loaded_cluster()
        manager = MembershipManager(cluster)
        report = manager.add_node("hashnode-4")
        assert report.action == "add"
        assert len(cluster.nodes) == 5
        assert len(cluster) == 800
        for index in range(800):
            assert cluster.lookup(synthetic_fingerprint(index)).is_duplicate is True

    def test_add_node_places_entries_at_their_new_owner(self):
        cluster = loaded_cluster()
        MembershipManager(cluster).add_node("hashnode-4")
        for index in range(0, 800, 7):
            fingerprint = synthetic_fingerprint(index)
            assert fingerprint in cluster.nodes[cluster.owner_of(fingerprint)]

    def test_add_existing_node_rejected(self):
        cluster = loaded_cluster()
        with pytest.raises(ValueError):
            MembershipManager(cluster).add_node("hashnode-0")

    def test_remove_node_preserves_every_fingerprint(self):
        cluster = loaded_cluster()
        manager = MembershipManager(cluster)
        report = manager.remove_node("hashnode-1")
        assert report.action == "remove"
        assert len(cluster.nodes) == 3
        assert "hashnode-1" not in cluster.nodes
        assert len(cluster) == 800
        for index in range(800):
            assert cluster.lookup(synthetic_fingerprint(index)).is_duplicate is True

    def test_remove_unknown_or_last_node_rejected(self):
        cluster = loaded_cluster(num_nodes=1)
        manager = MembershipManager(cluster)
        with pytest.raises(KeyError):
            manager.remove_node("ghost")
        with pytest.raises(ValueError):
            manager.remove_node("hashnode-0")

    def test_consistent_hashing_moves_fewer_entries_than_range(self):
        range_cluster = loaded_cluster(virtual_nodes=0)
        ring_cluster = loaded_cluster(virtual_nodes=128)
        range_report = MembershipManager(range_cluster).add_node("hashnode-4")
        ring_report = MembershipManager(ring_cluster).add_node("hashnode-4")
        assert ring_report.moved_fraction < range_report.moved_fraction

    def test_consistent_hashing_join_moves_roughly_one_fifth(self):
        cluster = loaded_cluster(virtual_nodes=256)
        report = MembershipManager(cluster).add_node("hashnode-4")
        assert 0.05 < report.moved_fraction < 0.4

    def test_migration_reports_accumulate(self):
        cluster = loaded_cluster()
        manager = MembershipManager(cluster)
        manager.add_node("hashnode-4")
        manager.remove_node("hashnode-4")
        assert len(manager.reports) == 2
        assert manager.total_moved() == sum(r.entries_moved for r in manager.reports)

    def test_a_finished_change_leaves_no_open_intent(self):
        cluster = loaded_cluster()
        manager = MembershipManager(cluster)
        manager.add_node("hashnode-4")
        manager.remove_node("hashnode-0")
        assert manager.intents == []


class TestReplicaAwareMembership:
    """Join/leave with replication_factor >= 2 must rebuild replica sets."""

    def assert_placement_matches_map(self, cluster):
        controller = ReplicationController(cluster)
        placement = controller.placement()
        for digest, holders in placement.items():
            value = next(
                (cluster.nodes[h].store.get(digest) for h in holders), 0
            )
            fingerprint = as_fingerprint(digest, value)
            desired = controller.desired_nodes(fingerprint)
            assert set(desired) <= holders, "replica-set member missing a copy"
            assert holders <= set(desired), "stale copy outside the replica set"

    def test_add_node_rebuilds_replica_sets(self):
        cluster = loaded_cluster(num_nodes=4, replication=2, virtual_nodes=64, entries=500)
        report = MembershipManager(cluster).add_node("hashnode-4")
        assert report.replication_factor == 2
        assert report.replica_copies > 0
        assert report.primary_moves > 0
        assert report.entries_moved == report.primary_moves + report.replica_copies
        assert len(cluster) == 500
        self.assert_placement_matches_map(cluster)
        assert ReplicationController(cluster).consistency_report().is_healthy

    def test_remove_node_rebuilds_replica_sets(self):
        cluster = loaded_cluster(num_nodes=4, replication=2, virtual_nodes=64, entries=500)
        report = MembershipManager(cluster).remove_node("hashnode-1")
        assert report.replica_copies > 0
        assert len(cluster) == 500
        assert "hashnode-1" not in cluster.nodes
        self.assert_placement_matches_map(cluster)
        for index in range(500):
            assert cluster.lookup(synthetic_fingerprint(index)).is_duplicate is True

    def test_migration_drops_stale_copies(self):
        cluster = loaded_cluster(num_nodes=4, replication=2, virtual_nodes=64, entries=500)
        manager = MembershipManager(cluster)
        report = manager.add_node("hashnode-4")
        assert report.replica_drops > 0
        # Capacity view: exactly k copies of each fingerprint remain.
        assert cluster.total_stored == 2 * 500

    def test_a_leave_logs_at_most_one_remove_frame_per_node(self, tmp_path):
        config = ClusterConfig(
            num_nodes=4,
            node=HashNodeConfig(ram_cache_entries=512, bloom_expected_items=50_000, ssd_buckets=1 << 10),
            replication_factor=2,
        )
        cluster = SHHCCluster(config, persistence=PersistencePolicy(str(tmp_path)))
        cluster.lookup_batch([synthetic_fingerprint(i) for i in range(500)])
        # Range partitioning re-shards on a leave, so every survivor drops copies.
        report = MembershipManager(cluster).remove_node("hashnode-1")
        assert report.replica_drops > 0
        removed = 0
        for node in cluster.nodes.values():
            log = FingerprintLog(node.persistence.container.path)
            frames = [(op, len(keys)) for op, keys, _values in log.replay()]
            log.close()
            removes = [count for op, count in frames if op == OP_REMOVE]
            assert len(removes) <= 1
            removed += sum(removes)
            # records still counts keys, not frames.
            assert node.persistence.records == sum(count for _op, count in frames)
        assert removed == report.replica_drops
        cluster.close()

    def test_a_joining_node_is_persisted_like_the_founding_ones(self, tmp_path):
        config = ClusterConfig(
            num_nodes=4,
            node=HashNodeConfig(ram_cache_entries=512, bloom_expected_items=50_000, ssd_buckets=1 << 10),
            replication_factor=1,
        )
        cluster = SHHCCluster(config, persistence=PersistencePolicy(str(tmp_path)))
        cluster.lookup_batch([synthetic_fingerprint(i) for i in range(400)])
        report = MembershipManager(cluster).add_node("hashnode-4")
        assert report.entries_moved > 0
        joined = cluster.nodes["hashnode-4"]
        assert joined.persistence is not None
        assert joined.persistence.directory == str(tmp_path / "hashnode-4")
        # At k = 1 the joiner holds the only copy of what moved to it: a
        # kill + restart must bring it back from the joiner's own log.
        cluster.kill_node("hashnode-4")
        assert cluster.restart_node("hashnode-4").entries == len(joined.store) > 0
        assert len(cluster) == 400
        cluster.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("interrupted", [False, True], ids=["remove", "recovered-remove"])
    def test_a_removed_node_keeps_no_file_open(self, tmp_path, monkeypatch, interrupted):
        config = ClusterConfig(
            num_nodes=4,
            node=HashNodeConfig(ram_cache_entries=512, bloom_expected_items=50_000, ssd_buckets=1 << 10),
            replication_factor=1,
        )
        cluster = SHHCCluster(config, persistence=PersistencePolicy(str(tmp_path), snapshot_every=16))
        cluster.lookup_batch([synthetic_fingerprint(i) for i in range(400)])
        manager = MembershipManager(cluster)
        # A caller may still hold the node object: the files must not wait
        # for it to be collected.
        departing = cluster.nodes["hashnode-1"]
        if interrupted:
            monkeypatch.setattr(manager, "_rebuild", _interrupted_rebuild)
            with pytest.raises(_Interrupted):
                manager.remove_node("hashnode-1")
            monkeypatch.undo()
            manager.recover()
        else:
            manager.remove_node("hashnode-1")
        cluster.close()
        departed = str(tmp_path / "hashnode-1")
        held = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:  # the directory's own descriptor, closed by now
                continue
            if target.startswith(departed + os.sep):
                held.append(target)
        assert held == []
        assert len(cluster) == 400
        assert departing.persistence.snapshots_taken > 0

    def test_unreplicated_join_has_no_replica_traffic(self):
        cluster = loaded_cluster(num_nodes=4, replication=1, virtual_nodes=64, entries=500)
        report = MembershipManager(cluster).add_node("hashnode-4")
        assert report.replica_copies == 0
        assert report.entries_moved == report.primary_moves

    def test_removing_a_down_node_relies_on_survivors(self):
        cluster = loaded_cluster(num_nodes=4, replication=2, virtual_nodes=64, entries=400)
        manager = MembershipManager(cluster)
        cluster.mark_down("hashnode-2")
        report = manager.remove_node("hashnode-2")
        assert report.unreachable == 0  # k=2: every digest had a live copy
        assert len(cluster) == 400
        assert ReplicationController(cluster).consistency_report().is_healthy

    def test_removing_a_down_node_without_replication_loses_entries(self):
        cluster = loaded_cluster(num_nodes=4, replication=1, virtual_nodes=64, entries=400)
        manager = MembershipManager(cluster)
        on_victim = len(cluster.nodes["hashnode-2"])
        assert on_victim > 0
        cluster.mark_down("hashnode-2")
        report = manager.remove_node("hashnode-2")
        assert len(cluster) == 400 - on_victim
        # Every lost digest is accounted for: at k=1 the dead node held the
        # only copy of each of its entries.
        assert report.unreachable == on_victim

    def test_total_replica_copies_accumulates(self):
        cluster = loaded_cluster(num_nodes=4, replication=2, virtual_nodes=64, entries=300)
        manager = MembershipManager(cluster)
        manager.add_node("hashnode-4")
        manager.remove_node("hashnode-0")
        assert manager.total_replica_copies() == sum(
            r.replica_copies for r in manager.reports
        )


class _Interrupted(Exception):
    """A membership change dies part-way through its migration."""


def _interrupted_rebuild(*_args, **_kwargs):
    raise _Interrupted


class TestInterruptedMembershipChange:
    """A change interrupted mid-migration is finished by recover()."""

    def test_an_add_whose_migration_raises_is_finished_by_recover(self, monkeypatch):
        cluster = loaded_cluster(num_nodes=4, replication=2, virtual_nodes=64, entries=400)
        manager = MembershipManager(cluster)
        monkeypatch.setattr(manager, "_rebuild", _interrupted_rebuild)
        with pytest.raises(_Interrupted):
            manager.add_node("hashnode-4")
        assert manager.intents == [("add", "hashnode-4")]
        monkeypatch.undo()
        reports = manager.recover()
        assert len(reports) == 1 and reports[0].recovered is True
        assert reports[0].entries_moved > 0
        assert manager.intents == []
        assert "hashnode-4" in cluster.partitioner.nodes()
        assert len(cluster) == 400
        assert ReplicationController(cluster).consistency_report().is_healthy

    def test_a_remove_whose_migration_raises_is_finished_by_recover(self, monkeypatch):
        cluster = loaded_cluster(num_nodes=4, replication=2, virtual_nodes=64, entries=400)
        manager = MembershipManager(cluster)
        monkeypatch.setattr(manager, "_rebuild", _interrupted_rebuild)
        with pytest.raises(_Interrupted):
            manager.remove_node("hashnode-1")
        assert manager.intents == [("remove", "hashnode-1")]
        monkeypatch.undo()
        reports = manager.recover()
        assert len(reports) == 1 and reports[0].recovered is True
        assert manager.intents == []
        assert "hashnode-1" not in cluster.nodes
        assert len(cluster) == 400
        assert ReplicationController(cluster).consistency_report().is_healthy
        for index in range(0, 400, 7):
            assert cluster.lookup(synthetic_fingerprint(index)).is_duplicate is True

    def test_a_remove_at_replication_factor_1_whose_migration_raises_loses_nothing(
        self, monkeypatch
    ):
        # The departing node holds the only copy of its entries; the export
        # taken before the migration raised is all that is left of them.
        cluster = loaded_cluster(num_nodes=4, replication=1, virtual_nodes=64, entries=400)
        manager = MembershipManager(cluster)
        monkeypatch.setattr(manager, "_rebuild", _interrupted_rebuild)
        with pytest.raises(_Interrupted):
            manager.remove_node("hashnode-1")
        assert "hashnode-1" not in cluster.nodes
        monkeypatch.undo()
        reports = manager.recover()
        assert len(reports) == 1 and reports[0].recovered is True
        assert reports[0].unreachable == 0 and manager.intents == []
        assert len(cluster) == 400
        assert ReplicationController(cluster).consistency_report().is_healthy
        for index in range(400):
            assert cluster.lookup(synthetic_fingerprint(index)).is_duplicate is True

    def test_a_recovery_that_raises_keeps_the_departed_entries(self, monkeypatch):
        # At k = 1 the departed export is the only copy of the leaver's
        # entries: a recovery that fails part-way must leave it for the next.
        cluster = loaded_cluster(num_nodes=4, replication=1, virtual_nodes=64, entries=400)
        manager = MembershipManager(cluster)
        monkeypatch.setattr(manager, "_rebuild", _interrupted_rebuild)
        with pytest.raises(_Interrupted):
            manager.remove_node("hashnode-1")
        with pytest.raises(_Interrupted):
            manager.recover()
        assert manager.intents == [("remove", "hashnode-1")]
        assert len(manager.departed["hashnode-1"][0]) > 0
        monkeypatch.undo()
        (report,) = manager.recover()
        assert report.recovered is True and report.unreachable == 0
        assert manager.intents == [] and manager.departed == {}
        assert len(cluster) == 400

    def test_recover_completes_an_interrupted_add(self):
        cluster = loaded_cluster(num_nodes=4, replication=2, virtual_nodes=64, entries=400)
        manager = MembershipManager(cluster)
        # Interrupted right after the intent: the partition map and node
        # object never changed, no data moved.
        manager.intents.append(("add", "hashnode-4"))
        reports = manager.recover()
        assert len(reports) == 1
        assert reports[0].recovered is True
        assert "hashnode-4" in cluster.nodes
        assert len(cluster) == 400
        assert ReplicationController(cluster).consistency_report().is_healthy
        assert manager.intents == []

    def test_recover_completes_a_partially_applied_add(self):
        cluster = loaded_cluster(num_nodes=4, replication=2, virtual_nodes=64, entries=400)
        manager = MembershipManager(cluster)
        manager.intents.append(("add", "hashnode-4"))
        # Interrupted after the node was installed but before migration.
        manager._install_node("hashnode-4")
        reports = manager.recover()
        assert reports[0].entries_moved > 0
        assert len(cluster) == 400
        assert ReplicationController(cluster).consistency_report().is_healthy

    def test_recover_completes_an_interrupted_remove(self):
        cluster = loaded_cluster(num_nodes=4, replication=2, virtual_nodes=64, entries=400)
        manager = MembershipManager(cluster)
        manager.intents.append(("remove", "hashnode-1"))
        # Interrupted after the node was torn down; its local entries are
        # gone (k=2 survivors hold every digest).
        manager._uninstall_node("hashnode-1")
        reports = manager.recover()
        assert len(reports) == 1
        assert "hashnode-1" not in cluster.nodes
        assert len(cluster) == 400
        assert ReplicationController(cluster).consistency_report().is_healthy
        for index in range(0, 400, 7):
            assert cluster.lookup(synthetic_fingerprint(index)).is_duplicate is True

    def test_recover_completes_a_remove_interrupted_mid_teardown(self):
        # Interrupted between the partitioner update and the node-dict
        # removal: the node is still in cluster.nodes but not in the map.
        cluster = loaded_cluster(num_nodes=4, replication=2, virtual_nodes=64, entries=400)
        manager = MembershipManager(cluster)
        manager.intents.append(("remove", "hashnode-1"))
        cluster.partitioner.remove_node("hashnode-1")
        reports = manager.recover()
        assert len(reports) == 1 and reports[0].recovered is True
        assert "hashnode-1" not in cluster.nodes
        assert "hashnode-1" not in cluster.partitioner.nodes()
        assert len(cluster) == 400
        assert ReplicationController(cluster).consistency_report().is_healthy

    def test_recover_is_a_noop_with_no_open_intent(self):
        cluster = loaded_cluster(num_nodes=4, replication=2, entries=200)
        manager = MembershipManager(cluster)
        manager.add_node("hashnode-4")
        reports = list(manager.reports)
        assert manager.recover() == []
        assert manager.reports == reports and manager.intents == []

    def test_recovery_migration_is_idempotent(self):
        cluster = loaded_cluster(num_nodes=4, replication=2, virtual_nodes=64, entries=300)
        manager = MembershipManager(cluster)
        manager.add_node("hashnode-4")
        # Re-applying the same intent against the fully migrated state
        # moves nothing further.
        manager.intents.append(("add", "hashnode-4"))
        reports = manager.recover()
        assert reports[0].entries_moved == 0
        assert len(cluster) == 300


class TestReplicationController:
    def test_healthy_cluster_reports_full_replication(self):
        cluster = loaded_cluster(num_nodes=3, replication=2, entries=300)
        report = ReplicationController(cluster).consistency_report()
        assert report.is_healthy
        assert report.total_fingerprints == 300
        assert report.copies_histogram.get(2, 0) == 300

    def test_node_failure_repair_restores_replication(self):
        cluster = loaded_cluster(num_nodes=3, replication=2, entries=300)
        controller = ReplicationController(cluster)
        created = controller.handle_failure("hashnode-0")
        assert created > 0
        report = controller.consistency_report()
        assert report.is_healthy
        assert report.lost == 0
        # All fingerprints still answerable.
        for index in range(300):
            assert cluster.lookup(synthetic_fingerprint(index)).is_duplicate is True

    def test_no_data_loss_with_replication_after_single_failure(self):
        cluster = loaded_cluster(num_nodes=4, replication=2, entries=400)
        controller = ReplicationController(cluster)
        cluster.mark_down("hashnode-2")
        report = controller.consistency_report()
        assert report.lost == 0

    def test_without_replication_failure_loses_copies(self):
        cluster = loaded_cluster(num_nodes=4, replication=1, entries=400)
        controller = ReplicationController(cluster)
        cluster.mark_down("hashnode-2")
        report = controller.consistency_report()
        # The failed node's entries have no surviving copy.
        assert report.total_fingerprints < 400

    def test_repair_is_idempotent(self):
        cluster = loaded_cluster(num_nodes=3, replication=2, entries=200)
        controller = ReplicationController(cluster)
        assert controller.repair() == 0

    def test_recovery_after_rejoin_keeps_health(self):
        cluster = loaded_cluster(num_nodes=3, replication=2, entries=200)
        controller = ReplicationController(cluster)
        controller.handle_failure("hashnode-1")
        controller.handle_recovery("hashnode-1")
        assert controller.consistency_report().is_healthy
