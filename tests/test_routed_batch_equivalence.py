"""Equivalence pins for the cluster's routed batch core.

``SHHCCluster._serve_routed`` -- routing through the partitioner's boundary
table, one-pass bucket dispatch through the node's batch contract, and
batched replica propagation -- is the only batch path;
``lookup_batch_columns`` and ``lookup_batch`` are views over it (the columns
lifted to replies by ``oracles.replies.cluster_lookup_batch`` for
comparison).  The per-reply implementation it replaced lives on as an oracle
in ``tests/oracles/cluster_reference.py``; these tests drive **twin
clusters** -- identical config, identical workload, one through each -- and
require identical verdicts, ``ServedFrom`` tiers, service times, per-node
counters and replica-write counts, under clean runs, downed nodes, grey
failures and membership churn, with and without a cost model.  Clean runs
are additionally held to the plain set model (duplicate <=> seen before) and
to sequential one-key lookups.
"""

from __future__ import annotations

import pytest
from oracles.cluster_reference import lookup_batch_replies_reference
from oracles.replies import LookupReply, cluster_lookup, cluster_lookup_batch, replies_from_tiers
from oracles.set_model import set_verdicts

from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.fault_injection import make_flaky
from repro.core.membership import MembershipManager
from repro.core.protocol import SERVED_FROM_TIER, ServedFrom
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.dedup.index import ChunkLocation, LookupResult
from repro.simulation.costmodel import CostModel


def make_cluster(num_nodes=4, replication=2, virtual_nodes=0, cost_model=None):
    config = ClusterConfig(
        num_nodes=num_nodes,
        replication_factor=replication,
        virtual_nodes=virtual_nodes,
        node=HashNodeConfig(
            ram_cache_entries=256,
            bloom_expected_items=50_000,
            ssd_buckets=1 << 8,
        ),
    )
    return SHHCCluster(config, cost_model=cost_model)


def workload(count, distinct=None, salt=0):
    distinct = distinct if distinct is not None else max(1, count // 3)
    return [synthetic_fingerprint(salt + i % distinct) for i in range(count)]


def drive(cluster, fingerprints, path, batch_size=64):
    if path == "lookup_batch_replies_reference":
        def lookup(batch):
            return lookup_batch_replies_reference(cluster, batch)
    elif path == "lookup_batch_columns":
        def lookup(batch):
            return cluster_lookup_batch(cluster, batch)
    else:
        lookup = getattr(cluster, path)
    replies = []
    for start in range(0, len(fingerprints), batch_size):
        replies.extend(lookup(fingerprints[start:start + batch_size]))
    return replies


def assert_equivalent(fast_cluster, fast_replies, reference_cluster, reference_replies):
    assert [r.is_duplicate for r in fast_replies] == [
        r.is_duplicate for r in reference_replies
    ]
    assert [r.served_from for r in fast_replies] == [
        r.served_from for r in reference_replies
    ]
    assert [r.node_id for r in fast_replies] == [r.node_id for r in reference_replies]
    assert [r.service_time for r in fast_replies] == [
        r.service_time for r in reference_replies
    ]
    for name in fast_cluster.nodes:
        fast_node = fast_cluster.nodes[name]
        reference_node = reference_cluster.nodes[name]
        assert dict(fast_node.counters) == dict(reference_node.counters), name
        assert len(fast_node.store) == len(reference_node.store), name
        assert set(fast_node.store.keys()) == set(reference_node.store.keys()), name
        assert fast_node.store.stats() == reference_node.store.stats(), name
        assert fast_node.cache.stats() == reference_node.cache.stats(), name
    assert fast_cluster.read_repairs == reference_cluster.read_repairs
    assert fast_cluster.failovers == reference_cluster.failovers
    assert fast_cluster.total_stored == reference_cluster.total_stored
    assert len(fast_cluster) == len(reference_cluster)


def replica_writes(cluster):
    return {
        name: node.counters["replica_inserts"] for name, node in cluster.nodes.items()
    }


class TestRoutedBatchEquivalence:
    @pytest.mark.parametrize("replication", [1, 2, 3])
    @pytest.mark.parametrize("virtual_nodes", [0, 16])
    def test_clean_run_is_byte_identical(self, replication, virtual_nodes):
        fast = make_cluster(replication=replication, virtual_nodes=virtual_nodes)
        reference = make_cluster(replication=replication, virtual_nodes=virtual_nodes)
        fingerprints = workload(900)
        fast_replies = drive(fast, fingerprints, "lookup_batch_columns")
        reference_replies = drive(reference, fingerprints, "lookup_batch_replies_reference")
        assert_equivalent(fast, fast_replies, reference, reference_replies)
        assert replica_writes(fast) == replica_writes(reference)
        assert [r.is_duplicate for r in fast_replies] == set_verdicts(
            [fp.digest for fp in fingerprints], set()
        )

    def test_equivalent_under_downed_nodes_and_recovery(self):
        fast = make_cluster()
        reference = make_cluster()
        warm = workload(200)
        # Distinct fingerprints first seen while a node is down: their
        # primaries may miss the write, setting up post-recovery repair.
        while_down = workload(200, distinct=200, salt=10_000)
        fast_replies = drive(fast, warm, "lookup_batch_columns")
        reference_replies = drive(reference, warm, "lookup_batch_replies_reference")
        victim = fast.node_names[1]
        fast.mark_down(victim)
        reference.mark_down(victim)
        fast_replies += drive(fast, while_down, "lookup_batch_columns")
        reference_replies += drive(reference, while_down, "lookup_batch_replies_reference")
        fast.mark_up(victim)
        reference.mark_up(victim)
        # Read repair: the recovered node missed writes and must be
        # backfilled identically on both paths.
        fast_replies += drive(fast, while_down, "lookup_batch_columns")
        reference_replies += drive(reference, while_down, "lookup_batch_replies_reference")
        assert any(r.served_from is ServedFrom.REPAIR for r in fast_replies)
        assert_equivalent(fast, fast_replies, reference, reference_replies)
        assert replica_writes(fast) == replica_writes(reference)

    def test_equivalent_under_grey_failure(self):
        fast = make_cluster(num_nodes=3, replication=2)
        reference = make_cluster(num_nodes=3, replication=2)
        fingerprints = workload(400)
        drive(fast, fingerprints, "lookup_batch_columns")
        drive(reference, fingerprints, "lookup_batch_replies_reference")
        victim = fast.node_names[0]
        make_flaky(fast, victim, failure_rate=0.4, seed=11)
        make_flaky(reference, victim, failure_rate=0.4, seed=11)
        fast_replies = drive(fast, fingerprints, "lookup_batch_columns")
        reference_replies = drive(reference, fingerprints, "lookup_batch_replies_reference")
        assert fast.failovers > 0
        assert_equivalent(fast, fast_replies, reference, reference_replies)

    def test_equivalent_under_membership_churn(self):
        fast = make_cluster(virtual_nodes=16)
        reference = make_cluster(virtual_nodes=16)
        fingerprints = workload(600, salt=50_000)
        fast_replies = drive(fast, fingerprints[:300], "lookup_batch_columns")
        reference_replies = drive(reference, fingerprints[:300], "lookup_batch_replies_reference")
        for cluster in (fast, reference):
            manager = MembershipManager(cluster)
            manager.add_node("hashnode-9")
            manager.remove_node(cluster.config.node_names[0])
        fast_replies += drive(fast, fingerprints[300:], "lookup_batch_columns")
        reference_replies += drive(
            reference, fingerprints[300:], "lookup_batch_replies_reference"
        )
        assert "hashnode-9" in {r.node_id for r in fast_replies[300:]}
        assert_equivalent(fast, fast_replies, reference, reference_replies)
        assert replica_writes(fast) == replica_writes(reference)

    def test_matches_per_fingerprint_sequential_verdicts(self):
        """Verdict/counter parity with the batch_size=1 sequential path."""
        batched = make_cluster()
        sequential = make_cluster()
        fingerprints = workload(500)
        batched_replies = drive(batched, fingerprints, "lookup_batch_columns")
        sequential_replies = [cluster_lookup(sequential, fp) for fp in fingerprints]
        assert [r.is_duplicate for r in batched_replies] == [
            r.is_duplicate for r in sequential_replies
        ]
        assert replica_writes(batched) == replica_writes(sequential)
        assert len(batched) == len(sequential)

    @pytest.mark.parametrize("virtual_nodes", [0, 16])
    def test_unreplicated_replies_equal_sequential_lookups_field_for_field(self, virtual_nodes):
        """Without replica writes a node sees the same key order either way,
        so batch replies equal sequential ones in every field (``served_from``,
        ``service_time``, ``node_id``), not just the verdict."""
        batched = make_cluster(replication=1, virtual_nodes=virtual_nodes)
        sequential = make_cluster(replication=1, virtual_nodes=virtual_nodes)
        fingerprints = workload(700, distinct=400)
        batched_replies = drive(batched, fingerprints, "lookup_batch_columns")
        sequential_replies = [cluster_lookup(sequential, fp) for fp in fingerprints]
        assert batched_replies == sequential_replies
        assert_equivalent(batched, batched_replies, sequential, sequential_replies)


class TestRoutingCacheInvalidation:
    """Routing follows the partitioner as it is at each batch: after a
    membership change or a partitioner swap between two batches, every reply
    of the second comes from the first live member of the fingerprint's
    replica set under the new partitioner."""

    @staticmethod
    def assert_served_by_first_live(cluster, fingerprints, replies):
        k = cluster.config.replication_factor
        for fingerprint, reply in zip(fingerprints, replies):
            owners = cluster.partitioner.owners(fingerprint, k)
            assert reply.node_id == next(n for n in owners if not cluster.is_down(n))

    @pytest.mark.parametrize("down", [None, "hashnode-1"])
    @pytest.mark.parametrize("virtual_nodes", [0, 16])
    def test_add_node_between_batches(self, virtual_nodes, down):
        cluster = make_cluster(virtual_nodes=virtual_nodes)
        fingerprints = workload(200, salt=9_000)
        drive(cluster, fingerprints, "lookup_batch_columns")
        cluster.partitioner.add_node("hashnode-7")
        cluster.nodes["hashnode-7"] = type(cluster.nodes["hashnode-0"])(
            "hashnode-7", cluster.config.node, None
        )
        if down is not None:
            cluster.mark_down(down)
        replies = drive(cluster, fingerprints, "lookup_batch_columns")
        self.assert_served_by_first_live(cluster, fingerprints, replies)
        assert any(reply.node_id == "hashnode-7" for reply in replies)

    @pytest.mark.parametrize("down", [None, "hashnode-1"])
    @pytest.mark.parametrize("virtual_nodes", [0, 16])
    def test_partitioner_swap_between_batches(self, virtual_nodes, down):
        from repro.core.partition import ConsistentHashRing, RangePartitioner

        cluster = make_cluster(virtual_nodes=virtual_nodes)
        fingerprints = workload(200, salt=1_000)
        drive(cluster, fingerprints, "lookup_batch_columns")
        before = [cluster.partitioner.owner(fingerprint) for fingerprint in fingerprints]
        if virtual_nodes:
            cluster.partitioner = RangePartitioner(cluster.node_names)
        else:
            cluster.partitioner = ConsistentHashRing(cluster.node_names, virtual_nodes=16)
        if down is not None:
            cluster.mark_down(down)
        replies = drive(cluster, fingerprints, "lookup_batch_columns")
        self.assert_served_by_first_live(cluster, fingerprints, replies)
        assert before != [cluster.partitioner.owner(fingerprint) for fingerprint in fingerprints]


class TestHotPathConstructors:
    def test_column_built_replies_match_init(self):
        """``replies_from_tiers`` fills slots without running ``__init__``;
        what it builds from the cluster's columns must be indistinguishable
        from the replies the reference models construct, for every tier
        code."""
        fingerprints = [synthetic_fingerprint(index) for index in range(4)]
        tiers, times = [0, 1, 2, 3], [1.5e-6, 2.5e-6, 0.0, 7.0]
        fast = replies_from_tiers(fingerprints, tiers, times, ["n0", "n1", "n0", "n2"])
        regular = [
            LookupReply(
                fingerprint=fingerprint,
                is_duplicate=tier != 0,
                served_from=SERVED_FROM_TIER[tier],
                node_id=node_id,
                service_time=service_time,
            )
            for fingerprint, tier, service_time, node_id in zip(
                fingerprints, tiers, times, ["n0", "n1", "n0", "n2"]
            )
        ]
        assert fast == regular
        assert [hash(reply) for reply in fast] == [hash(reply) for reply in regular]
        assert [repr(reply) for reply in fast] == [repr(reply) for reply in regular]
        assert [reply.payload_bytes for reply in fast] == [r.payload_bytes for r in regular]
        assert all(type(reply.is_duplicate) is bool for reply in fast)
        assert fast[3].served_from is ServedFrom.REPAIR

    def test_column_built_results_match_init(self):
        cluster = make_cluster()
        fingerprints = workload(120)
        fast = drive(cluster, fingerprints, "lookup_batch")
        regular = [
            LookupResult(
                fingerprint=result.fingerprint,
                is_duplicate=result.is_duplicate,
                location=ChunkLocation(),
                latency=result.latency,
                served_by=result.served_by,
            )
            for result in fast
        ]
        assert [result.fingerprint for result in fast] == fingerprints
        assert fast == regular
        assert [hash(result) for result in fast] == [hash(result) for result in regular]
        assert [repr(result) for result in fast] == [repr(result) for result in regular]

    def test_lookup_batch_results_match_reply_fields(self):
        cluster = make_cluster()
        fingerprints = workload(120)
        twin = make_cluster()
        replies = drive(twin, fingerprints, "lookup_batch_columns")
        results = drive(cluster, fingerprints, "lookup_batch")
        for result, reply in zip(results, replies):
            assert result.fingerprint == reply.fingerprint
            assert result.is_duplicate == reply.is_duplicate
            assert result.latency == reply.service_time
            assert result.served_by == reply.node_id
            assert type(result.is_duplicate) is bool
        assert cluster.lookups == len(fingerprints)
        assert cluster.duplicates == sum(r.is_duplicate for r in replies)

    def test_lookup_batch_is_one_path_with_and_without_a_cost_model(self):
        """The ledger only adds charges: results, node state and replica
        writes are those of a cost-free twin, and every lookup is charged."""
        free = make_cluster()
        charged = make_cluster(cost_model=CostModel())
        fingerprints = workload(600)
        free_results = drive(free, fingerprints, "lookup_batch")
        charged_results = drive(charged, fingerprints, "lookup_batch")
        assert charged_results == free_results
        for name in free.nodes:
            assert dict(charged.nodes[name].counters) == dict(free.nodes[name].counters)
            assert charged.nodes[name].store.stats() == free.nodes[name].store.stats()
        ledger = charged.ledger
        assert ledger.counters["lookups"] == len(fingerprints)
        assert ledger.counters["replica_writes"] == sum(replica_writes(charged).values())


class TestVerdictDirectScenarioEquivalence:
    """``lookup_batch`` (the result view) vs the per-reply oracle.

    The clean run is pinned by
    :meth:`TestHotPathConstructors.test_lookup_batch_results_match_reply_fields`;
    these cover the failure scenarios, where the routed core's batched
    replica propagation, bucket-uniform routing shortcut and repair tier
    flips must still match the oracle byte for byte.
    """

    @staticmethod
    def assert_results_match(cluster, results, reference_cluster, reference_replies):
        assert [r.is_duplicate for r in results] == [
            r.is_duplicate for r in reference_replies
        ]
        assert [r.latency for r in results] == [
            r.service_time for r in reference_replies
        ]
        assert [r.served_by for r in results] == [r.node_id for r in reference_replies]
        for name in cluster.nodes:
            node = cluster.nodes[name]
            reference_node = reference_cluster.nodes[name]
            assert dict(node.counters) == dict(reference_node.counters), name
            assert set(node.store.keys()) == set(reference_node.store.keys()), name
            assert node.cache.stats() == reference_node.cache.stats(), name
        assert cluster.read_repairs == reference_cluster.read_repairs
        assert cluster.failovers == reference_cluster.failovers
        assert cluster.duplicates == sum(r.is_duplicate for r in reference_replies)

    def test_matches_under_downed_nodes_and_recovery(self):
        fast = make_cluster()
        reference = make_cluster()
        warm = workload(200)
        while_down = workload(200, distinct=200, salt=10_000)
        results = drive(fast, warm, "lookup_batch")
        reference_replies = drive(reference, warm, "lookup_batch_replies_reference")
        victim = fast.node_names[1]
        fast.mark_down(victim)
        reference.mark_down(victim)
        results += drive(fast, while_down, "lookup_batch")
        reference_replies += drive(reference, while_down, "lookup_batch_replies_reference")
        fast.mark_up(victim)
        reference.mark_up(victim)
        results += drive(fast, while_down, "lookup_batch")
        reference_replies += drive(reference, while_down, "lookup_batch_replies_reference")
        assert fast.read_repairs > 0
        self.assert_results_match(fast, results, reference, reference_replies)

    def test_matches_under_grey_failure(self):
        fast = make_cluster(num_nodes=3, replication=2)
        reference = make_cluster(num_nodes=3, replication=2)
        fingerprints = workload(400)
        results = drive(fast, fingerprints, "lookup_batch")
        reference_replies = drive(reference, fingerprints, "lookup_batch_replies_reference")
        victim = fast.node_names[0]
        make_flaky(fast, victim, failure_rate=0.4, seed=11)
        make_flaky(reference, victim, failure_rate=0.4, seed=11)
        results += drive(fast, fingerprints, "lookup_batch")
        reference_replies += drive(reference, fingerprints, "lookup_batch_replies_reference")
        assert fast.failovers > 0
        self.assert_results_match(fast, results, reference, reference_replies)

    def test_matches_under_membership_churn(self):
        fast = make_cluster(virtual_nodes=16)
        reference = make_cluster(virtual_nodes=16)
        fingerprints = workload(600, salt=50_000)
        results = drive(fast, fingerprints[:300], "lookup_batch")
        reference_replies = drive(
            reference, fingerprints[:300], "lookup_batch_replies_reference"
        )
        for cluster in (fast, reference):
            manager = MembershipManager(cluster)
            manager.add_node("hashnode-9")
            manager.remove_node(cluster.config.node_names[0])
        results += drive(fast, fingerprints[300:], "lookup_batch")
        reference_replies += drive(
            reference, fingerprints[300:], "lookup_batch_replies_reference"
        )
        assert "hashnode-9" in {r.served_by for r in results[300:]}
        self.assert_results_match(fast, results, reference, reference_replies)
