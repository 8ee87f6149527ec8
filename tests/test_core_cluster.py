"""Tests for the SHHC cluster."""

from __future__ import annotations

import pytest

from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.protocol import BatchLookupRequest
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.network.topology import ClusterTopology
from repro.simulation.engine import Simulator


def make_cluster(num_nodes=4, replication=1, virtual_nodes=0, sim=None) -> SHHCCluster:
    config = ClusterConfig(
        num_nodes=num_nodes,
        node=HashNodeConfig(ram_cache_entries=512, bloom_expected_items=50_000, ssd_buckets=1 << 10),
        replication_factor=replication,
        virtual_nodes=virtual_nodes,
    )
    return SHHCCluster(config, sim=sim)


class TestClusterLookup:
    def test_first_lookup_unique_second_duplicate(self):
        cluster = make_cluster()
        fingerprint = synthetic_fingerprint(1)
        assert cluster.lookup(fingerprint).is_duplicate is False
        assert cluster.lookup(fingerprint).is_duplicate is True
        assert len(cluster) == 1
        assert cluster.duplicate_ratio() == pytest.approx(0.5)

    def test_lookup_routes_to_partition_owner(self):
        cluster = make_cluster()
        fingerprint = synthetic_fingerprint(99)
        result = cluster.lookup(fingerprint)
        assert result.served_by == cluster.owner_of(fingerprint)
        assert fingerprint in cluster.nodes[result.served_by]

    def test_batch_lookup_matches_single_lookups(self):
        fingerprints = [synthetic_fingerprint(i % 50) for i in range(200)]
        batch_cluster = make_cluster()
        single_cluster = make_cluster()
        batch_results = batch_cluster.lookup_batch(fingerprints)
        single_results = [single_cluster.lookup(fp) for fp in fingerprints]
        assert [r.is_duplicate for r in batch_results] == [r.is_duplicate for r in single_results]
        assert len(batch_cluster) == len(single_cluster)

    def test_batch_lookup_preserves_order(self):
        cluster = make_cluster()
        fingerprints = [synthetic_fingerprint(i) for i in range(100)]
        results = cluster.lookup_batch(fingerprints)
        assert [r.fingerprint for r in results] == fingerprints

    def test_contains_checks_replicas_without_inserting(self):
        cluster = make_cluster()
        fingerprint = synthetic_fingerprint(7)
        assert fingerprint not in cluster
        cluster.lookup(fingerprint)
        assert fingerprint in cluster

    def test_distribution_across_nodes_is_balanced(self):
        cluster = make_cluster()
        cluster.lookup_batch([synthetic_fingerprint(i) for i in range(4000)])
        report = cluster.storage_distribution()
        assert report.total == 4000
        assert report.max_deviation_from_even() < 0.05

    def test_empty_batch(self):
        assert make_cluster().lookup_batch([]) == []

    def test_metrics_match_lookup_counts(self):
        cluster = make_cluster()
        cluster.lookup_batch([synthetic_fingerprint(i % 100) for i in range(500)])
        metrics = cluster.metrics()
        assert metrics.total_lookups == 500
        assert metrics.total_entries == 100
        assert metrics.total_new_entries == 100

    def test_mean_lookup_latency_positive(self):
        cluster = make_cluster()
        cluster.lookup_batch([synthetic_fingerprint(i) for i in range(50)])
        assert cluster.mean_lookup_latency() > 0.0

    def test_mean_lookup_latency_divides_every_nodes_total_by_their_count(self):
        cluster = make_cluster()
        results = cluster.lookup_batch([synthetic_fingerprint(i % 40) for i in range(200)])
        assert sum(node.lookup_latency.count for node in cluster.nodes.values()) == 200
        expected = sum(result.latency for result in results) / 200
        assert cluster.mean_lookup_latency() == pytest.approx(expected)


class TestReplication:
    def test_new_fingerprints_written_to_replica_set(self):
        cluster = make_cluster(num_nodes=3, replication=2)
        fingerprint = synthetic_fingerprint(11)
        cluster.lookup(fingerprint)
        replicas = cluster.replica_set(fingerprint)
        assert len(replicas) == 2
        for node_name in replicas:
            assert fingerprint in cluster.nodes[node_name]

    def test_batch_lookups_also_replicate(self):
        cluster = make_cluster(num_nodes=3, replication=2)
        fingerprints = [synthetic_fingerprint(i) for i in range(60)]
        cluster.lookup_batch(fingerprints)
        for fingerprint in fingerprints:
            holders = [name for name, node in cluster.nodes.items() if fingerprint in node]
            assert len(holders) >= 2

    def test_failover_to_replica_when_primary_down(self):
        cluster = make_cluster(num_nodes=3, replication=2)
        fingerprint = synthetic_fingerprint(21)
        cluster.lookup(fingerprint)
        primary = cluster.owner_of(fingerprint)
        cluster.mark_down(primary)
        result = cluster.lookup(fingerprint)
        assert result.is_duplicate is True
        assert result.served_by != primary
        cluster.mark_up(primary)

    def test_mark_down_unknown_node_raises(self):
        cluster = make_cluster()
        with pytest.raises(KeyError):
            cluster.mark_down("ghost")

    def test_all_replicas_down_raises(self):
        cluster = make_cluster(num_nodes=2, replication=1)
        fingerprint = synthetic_fingerprint(5)
        cluster.mark_down(cluster.owner_of(fingerprint))
        # replication factor 1: the only replica is the primary.
        with pytest.raises(RuntimeError):
            cluster.lookup(fingerprint)


class TestVirtualNodePartitioning:
    def test_consistent_hash_cluster_balances(self):
        cluster = make_cluster(num_nodes=4, virtual_nodes=128)
        cluster.lookup_batch([synthetic_fingerprint(i) for i in range(4000)])
        report = cluster.storage_distribution()
        assert report.max_over_mean < 1.5


class TestSimulatedService:
    def test_registered_service_answers_batches(self, sim):
        cluster = make_cluster(num_nodes=2, sim=sim)
        topology = ClusterTopology(num_clients=1, num_web_servers=1, num_hash_nodes=2)
        network = topology.build_network(sim)
        cluster.register_services(network.rpc)

        fingerprints = [synthetic_fingerprint(i) for i in range(32)]
        owner = cluster.owner_of(fingerprints[0])
        owned = [fp for fp in fingerprints if cluster.owner_of(fp) == owner]
        request = BatchLookupRequest(owned)
        responses = []
        network.rpc.call("client-0", owner, request, request.payload_bytes,
                         on_response=lambda reply: responses.append((sim.now, reply)))
        sim.run()
        finish_time, reply = responses[0]
        assert finish_time > 0
        assert len(reply.tiers) == len(owned)
        assert not any(reply.tiers)
        assert len(cluster) == len(owned)
