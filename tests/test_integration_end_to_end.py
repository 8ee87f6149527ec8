"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

import os
import random

import pytest

from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.membership import MembershipManager
from repro.dedup.chunking import ContentDefinedChunker
from repro.dedup.archive import DirectoryArchiver
from repro.frontend.client import SimulatedClient
from repro.frontend.gateway import build_simulated_service
from repro.simulation.engine import Simulator
from repro.storage.object_store import CloudObjectStore
from repro.workloads.mixer import table_i_mix
from repro.workloads.traces import TraceGenerator
from repro.workloads.profiles import WEB_SERVER


def small_config(num_nodes=4, replication=1) -> ClusterConfig:
    return ClusterConfig(
        num_nodes=num_nodes,
        node=HashNodeConfig(ram_cache_entries=2048, bloom_expected_items=100_000, ssd_buckets=1 << 11),
        replication_factor=replication,
    )


class TestLibraryEndToEnd:
    def test_cluster_as_index_for_the_dedup_pipeline(self):
        """SHHC drops into the client-side loop in place of a centralized index."""
        cluster = SHHCCluster(small_config())
        store = CloudObjectStore()
        archiver = DirectoryArchiver(cluster, store, ContentDefinedChunker(average_size=1024))
        # Seeded data: with ~60 chunks over 4 nodes, the balance assertion
        # below is noisy under os.urandom and flakes around the threshold.
        rng = random.Random(42)
        base = rng.randbytes(60_000)
        monday = archiver.backup_files({"disk": base}, "monday")
        # Tuesday's backup: same data with a small edit in the middle.
        edited = base[:30_000] + rng.randbytes(200) + base[30_200:]
        tuesday = archiver.backup_files({"disk": edited}, "tuesday")
        assert archiver.restore_file("monday", "disk") == base
        assert archiver.restore_file("tuesday", "disk") == edited
        # The second backup should reuse most chunks.
        logical = monday.bytes_scanned + tuesday.bytes_scanned
        assert logical / store.total_bytes() > 1.6
        # The cluster spread the fingerprints over all four nodes.
        assert cluster.storage_distribution().max_over_mean < 1.6

    def test_archiver_full_week_cycle(self):
        cluster = SHHCCluster(small_config())
        archiver = DirectoryArchiver(cluster, CloudObjectStore())
        base = os.urandom(8192 * 16)
        total_upload = 0
        for day in range(5):
            # Each day one quarter of the data changes (cycling through the
            # four quarters).
            changed = bytearray(base)
            start = (day % 4) * 8192 * 4
            changed[start:start + 8192 * 4] = os.urandom(8192 * 4)
            stats = archiver.backup_files({"laptop-1/disk": bytes(changed)}, f"day-{day}")
            total_upload += stats.bytes_uploaded
        # Five full backups of 128 KiB each, but far less actually uploaded.
        logical = 5 * len(base)
        assert total_upload < logical * 0.6
        assert cluster.metrics().total_lookups == 5 * 16
        assert archiver.restore_file("day-4", "laptop-1/disk") == bytes(changed)

    def test_membership_change_with_live_data(self):
        cluster = SHHCCluster(small_config())
        trace = TraceGenerator(WEB_SERVER.scaled(0.001), seed=2).materialize()
        cluster.lookup_batch(trace.fingerprints)
        entries_before = len(cluster)
        MembershipManager(cluster).add_node("hashnode-4")
        assert len(cluster) == entries_before
        # Replaying the same trace must see every fingerprint as a duplicate.
        replay = cluster.lookup_batch(trace.fingerprints)
        assert all(result.is_duplicate for result in replay)


class TestSimulatedDeploymentEndToEnd:
    def test_mixed_workload_replay_through_full_stack(self):
        sim = Simulator()
        deployment = build_simulated_service(sim, small_config(), num_clients=2, num_web_servers=2)
        shares = table_i_mix(seed=5).split_among_clients(2, scale=0.0001)
        clients = [
            SimulatedClient(
                f"client-{index}",
                deployment.network.rpc,
                deployment.load_balancer,
                share,
                batch_size=128,
                sim=sim,
            )
            for index, share in enumerate(shares)
        ]
        for client in clients:
            client.start()
        sim.run()

        total_sent = sum(client.stats.fingerprints_sent for client in clients)
        assert total_sent == sum(len(share) for share in shares)
        metrics = deployment.cluster.metrics()
        # Every fingerprint the clients sent was looked up exactly once.
        assert metrics.total_lookups == total_sent
        # Duplicate ratio should be in the ballpark of the mixed workloads'
        # overall redundancy (the mix is dominated by the mail trace).
        assert 0.3 < metrics.duplicate_ratio() < 0.9
        # The web tier balanced requests over both web servers.
        assignments = deployment.load_balancer.assignments()
        assert all(count > 0 for count in assignments.values())
        # And the hash cluster balanced storage over its nodes.
        assert deployment.cluster.storage_distribution().max_deviation_from_even() < 0.1

    def test_simulated_and_immediate_cluster_agree(self):
        """The simulated deployment must produce the same dedup verdicts as
        the plain library cluster on the same trace."""
        trace = TraceGenerator(WEB_SERVER.scaled(0.0005), seed=9).materialize()

        immediate = SHHCCluster(small_config(num_nodes=2))
        immediate_verdicts = [r.is_duplicate for r in immediate.lookup_batch(trace.fingerprints)]

        sim = Simulator()
        deployment = build_simulated_service(sim, small_config(num_nodes=2), 1, 1)
        client = SimulatedClient(
            "client-0",
            deployment.network.rpc,
            deployment.load_balancer,
            trace.fingerprints,
            batch_size=256,
            sim=sim,
        )
        client.start()
        sim.run()
        assert client.stats.duplicates_found == sum(immediate_verdicts)
        assert len(deployment.cluster) == len(immediate)

    def test_throughput_scales_with_cluster_size(self):
        """The headline claim: more hash nodes, more throughput (batched)."""
        trace = table_i_mix(seed=1).interleaved(scale=0.00005)
        throughputs = {}
        for num_nodes in (1, 4):
            sim = Simulator()
            deployment = build_simulated_service(sim, small_config(num_nodes=num_nodes), 1, 1)
            client = SimulatedClient(
                "client-0",
                deployment.network.rpc,
                deployment.load_balancer,
                trace,
                batch_size=128,
                sim=sim,
            )
            client.start()
            sim.run()
            throughputs[num_nodes] = client.stats.throughput
        assert throughputs[4] > throughputs[1] * 1.5
