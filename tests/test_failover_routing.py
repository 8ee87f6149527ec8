"""Failover correctness of the replica-aware batch routing.

Pins the historical bug where ``lookup_batch_replies`` failed over an entire
per-owner batch to the replica set of its *first* fingerprint, which served
fingerprints from nodes outside their own replica sets under consistent
hashing (duplicates misreported as new, replicas polluted).
"""

from __future__ import annotations

import pytest

from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.protocol import ServedFrom
from repro.dedup.fingerprint import synthetic_fingerprint

from oracles.batch_routing import split_batch_by_replica_set


def make_cluster(num_nodes=5, replication=1, virtual_nodes=0) -> SHHCCluster:
    config = ClusterConfig(
        num_nodes=num_nodes,
        node=HashNodeConfig(ram_cache_entries=512, bloom_expected_items=50_000, ssd_buckets=1 << 10),
        replication_factor=replication,
        virtual_nodes=virtual_nodes,
    )
    return SHHCCluster(config)


def oracle_verdicts(fingerprints):
    """Exact dedup ground truth: duplicate iff the digest was seen before."""
    seen = set()
    verdicts = []
    for fingerprint in fingerprints:
        verdicts.append(fingerprint.digest in seen)
        seen.add(fingerprint.digest)
    return verdicts


class TestBatchMatchesSequentialUnderFailures:
    """Batch and single-lookup paths must agree fingerprint-for-fingerprint."""

    @pytest.mark.parametrize("virtual_nodes", [0, 64], ids=["range", "ring"])
    @pytest.mark.parametrize("replication", [1, 2, 3])
    def test_batch_equals_sequential_through_crash_and_recovery(self, virtual_nodes, replication):
        fingerprints = [synthetic_fingerprint(i % 150) for i in range(600)]
        phases = [fingerprints[0:200], fingerprints[200:400], fingerprints[400:600]]
        batch_cluster = make_cluster(replication=replication, virtual_nodes=virtual_nodes)
        single_cluster = make_cluster(replication=replication, virtual_nodes=virtual_nodes)
        victim = batch_cluster.node_names[1]

        batch_verdicts, single_verdicts = [], []
        for index, phase in enumerate(phases):
            # Phase 1 runs degraded (one node down) when replicas exist;
            # with replication_factor 1 a downed owner is unservable, so the
            # schedule only applies to replicated clusters.
            if replication > 1:
                if index == 1:
                    batch_cluster.mark_down(victim)
                    single_cluster.mark_down(victim)
                elif index == 2:
                    batch_cluster.mark_up(victim)
                    single_cluster.mark_up(victim)
            batch_verdicts.extend(r.is_duplicate for r in batch_cluster.lookup_batch(phase))
            single_verdicts.extend(single_cluster.lookup(fp).is_duplicate for fp in phase)

        assert batch_verdicts == single_verdicts
        if replication > 1:
            # One node down at a time must not cost a single dedup verdict.
            assert batch_verdicts == oracle_verdicts(fingerprints)
        assert len(batch_cluster) == len(single_cluster)
        assert batch_cluster.total_stored == single_cluster.total_stored

    def test_regression_batch_failover_uses_per_fingerprint_replica_sets(self):
        """The cluster.py:158 bug: one blanket failover target per sub-batch.

        With consistent hashing the successors of two fingerprints sharing a
        primary generally differ, so failing the whole sub-batch over to the
        first fingerprint's successor served lookups from nodes that never
        stored them.  Every reply must come from the fingerprint's own
        replica set and recognise the stored duplicate.
        """
        cluster = make_cluster(num_nodes=5, replication=2, virtual_nodes=64)
        fingerprints = [synthetic_fingerprint(i) for i in range(400)]
        cluster.lookup_batch(fingerprints)
        stored_before = cluster.total_stored

        victim = cluster.node_names[0]
        owned_by_victim = [fp for fp in fingerprints if cluster.owner_of(fp) == victim]
        assert owned_by_victim, "test requires the victim to own some fingerprints"
        failover_targets = {cluster.replica_set(fp)[1] for fp in owned_by_victim}
        assert len(failover_targets) > 1, "ring must spread successors for this regression"

        cluster.mark_down(victim)
        replies = cluster.lookup_batch_replies(fingerprints)
        for fingerprint, reply in zip(fingerprints, replies):
            assert reply.is_duplicate is True
            assert reply.node_id in cluster.replica_set(fingerprint)
            assert reply.node_id != victim
        # No replica pollution: failover lookups must not create new copies.
        assert cluster.total_stored == stored_before

    def test_read_repair_backfills_recovered_primary(self):
        cluster = make_cluster(num_nodes=4, replication=2)
        fingerprint = synthetic_fingerprint(7)
        primary = cluster.owner_of(fingerprint)

        cluster.mark_down(primary)
        assert cluster.lookup(fingerprint).is_duplicate is False
        assert fingerprint not in cluster.nodes[primary]

        cluster.mark_up(primary)
        reply = cluster.lookup_reply(fingerprint)
        assert reply.is_duplicate is True
        assert reply.served_from is ServedFrom.REPAIR
        assert cluster.read_repairs == 1
        # The recovered primary now holds the copy it missed.
        assert fingerprint in cluster.nodes[primary]
        # And the verdict stays an ordinary duplicate afterwards.
        assert cluster.lookup_reply(fingerprint).served_from in (ServedFrom.RAM, ServedFrom.SSD)


class TestReplicaWriteStats:
    def test_replica_writes_do_not_inflate_lookup_stats(self):
        cluster = make_cluster(num_nodes=4, replication=3)
        fingerprints = [synthetic_fingerprint(i) for i in range(120)]
        cluster.lookup_batch(fingerprints)

        metrics = cluster.metrics()
        assert metrics.total_lookups == 120  # replica writes are not lookups
        assert metrics.distinct == 120
        assert metrics.total_stored == 360
        assert sum(node.lookup_latency.count for node in cluster.nodes.values()) == 120
        assert sum(
            node.counters.get("replica_inserts") for node in cluster.nodes.values()
        ) == 240
        assert cluster.duplicate_ratio() == 0.0

        cluster.lookup_batch(fingerprints)
        assert cluster.metrics().total_lookups == 240
        assert cluster.duplicate_ratio() == pytest.approx(0.5)

    def test_len_counts_distinct_not_replicas(self):
        cluster = make_cluster(num_nodes=4, replication=2)
        fingerprints = [synthetic_fingerprint(i) for i in range(50)]
        cluster.lookup_batch(fingerprints)
        assert len(cluster) == 50
        assert cluster.distinct_fingerprints() == 50
        assert cluster.total_stored == 100
        as_dict = cluster.metrics().as_dict()
        assert as_dict["distinct"] == 50
        assert as_dict["total_stored"] == 100


class TestBatchIdThreading:
    def test_cluster_assigns_monotonic_batch_ids(self):
        cluster = make_cluster()
        fingerprints = [synthetic_fingerprint(i) for i in range(10)]
        assert cluster.last_batch_id == 0
        cluster.lookup_batch_replies(fingerprints)
        assert cluster.last_batch_id == 1
        cluster.lookup_batch_replies(fingerprints)
        assert cluster.last_batch_id == 2

    def test_split_by_replica_set_stamps_batch_id(self):
        cluster = make_cluster(num_nodes=3, replication=2)
        fingerprints = [synthetic_fingerprint(i) for i in range(40)]
        split = split_batch_by_replica_set(
            fingerprints, cluster.partitioner, 2, batch_id=7, client_id="c1"
        )
        for request, _positions in split.values():
            assert request.batch_id == 7
            assert request.client_id == "c1"


class TestSplitByReplicaSet:
    def test_matches_owner_split_when_all_nodes_up(self):
        cluster = make_cluster(num_nodes=4, virtual_nodes=64)
        fingerprints = [synthetic_fingerprint(i) for i in range(200)]
        by_owner = {}
        for position, fingerprint in enumerate(fingerprints):
            by_owner.setdefault(cluster.partitioner.owner(fingerprint), []).append(position)
        by_replica = split_batch_by_replica_set(fingerprints, cluster.partitioner, 1)
        assert by_owner == {n: positions for n, (_r, positions) in by_replica.items()}

    def test_routes_around_down_nodes(self):
        cluster = make_cluster(num_nodes=4, replication=2, virtual_nodes=64)
        fingerprints = [synthetic_fingerprint(i) for i in range(200)]
        victim = cluster.node_names[2]
        cluster.mark_down(victim)
        split = split_batch_by_replica_set(
            fingerprints, cluster.partitioner, 2, is_down=cluster.is_down
        )
        assert victim not in split
        covered = sorted(pos for _r, positions in split.values() for pos in positions)
        assert covered == list(range(200))

    def test_raises_when_no_live_replica(self):
        cluster = make_cluster(num_nodes=2, replication=1)
        fingerprint = synthetic_fingerprint(5)
        cluster.mark_down(cluster.owner_of(fingerprint))
        with pytest.raises(RuntimeError, match="no live replica"):
            split_batch_by_replica_set(
                [fingerprint], cluster.partitioner, 1, is_down=cluster.is_down
            )
