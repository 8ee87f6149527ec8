"""Tests for the front-end tier: upload plans, web servers, clients, gateway."""

from __future__ import annotations

import os

import pytest

from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.dedup.chunking import FixedSizeChunker
from repro.dedup.fingerprint import fingerprint_data, synthetic_fingerprint
from repro.frontend.client import BackupClient, SimulatedClient
from repro.frontend.gateway import BackupService, build_simulated_service
from repro.frontend.upload_plan import UploadPlan
from repro.frontend.webserver import ClientBatchRequest, WebFrontEnd
from repro.network.loadbalancer import LoadBalancer
from repro.simulation.engine import Simulator
from repro.storage.object_store import CloudObjectStore


def small_cluster(num_nodes=2) -> SHHCCluster:
    return SHHCCluster(
        ClusterConfig(
            num_nodes=num_nodes,
            node=HashNodeConfig(ram_cache_entries=512, bloom_expected_items=50_000, ssd_buckets=1 << 10),
        )
    )


class TestUploadPlan:
    def _columns(self, duplicates, uniques):
        """Fingerprints and tier codes: ``duplicates`` RAM hits, then ``uniques`` new."""
        fingerprints = [synthetic_fingerprint(index, 100) for index in range(duplicates)]
        fingerprints += [synthetic_fingerprint(1000 + index, 100) for index in range(uniques)]
        return fingerprints, [1] * duplicates + [0] * uniques

    def test_from_replies_partitions_correctly(self):
        """A plan is built from the verdict columns, each list in batch order."""
        fingerprints, _tiers = self._columns(3, 2)
        tiers = [1, 0, 2, 0, 3]  # RAM, new, SSD, new, read repair
        plan = UploadPlan.from_tiers("alice", fingerprints, tiers)
        assert plan.already_stored == [fingerprints[0], fingerprints[2], fingerprints[4]]
        assert plan.to_upload == [fingerprints[1], fingerprints[3]]
        assert plan.total_chunks == 5

    def test_byte_accounting_and_savings(self):
        plan = UploadPlan.from_tiers("alice", *self._columns(3, 1))
        assert plan.upload_bytes == 100
        assert plan.logical_bytes == 400
        assert plan.bandwidth_savings == pytest.approx(0.75)

    def test_empty_plan_savings(self):
        assert UploadPlan(client_id="x").bandwidth_savings == 0.0

    def test_merge_same_client(self):
        merged = UploadPlan.from_tiers("alice", *self._columns(1, 1))
        merged.extend(UploadPlan.from_tiers("alice", *self._columns(2, 0)))
        assert merged.total_chunks == 4
        assert len(merged.already_stored) == 3

    def test_merge_different_clients_rejected(self):
        with pytest.raises(ValueError):
            UploadPlan(client_id="a").extend(UploadPlan(client_id="b"))


class TestWebFrontEnd:
    def test_handle_batch_builds_plan(self):
        frontend = WebFrontEnd("web-0", small_cluster())
        fingerprints = [synthetic_fingerprint(i % 5) for i in range(20)]
        response = frontend.handle_batch(ClientBatchRequest("alice", fingerprints))
        assert len(response.replies) == 20
        assert len(response.plan.to_upload) == 5
        assert len(response.plan.already_stored) == 15
        assert frontend.stats()["fingerprints"] == 20

    def test_replies_returned_in_request_order(self):
        frontend = WebFrontEnd("web-0", small_cluster(num_nodes=4))
        fingerprints = [synthetic_fingerprint(i) for i in range(64)]
        response = frontend.handle_batch(ClientBatchRequest("alice", fingerprints))
        assert [r.fingerprint for r in response.replies] == fingerprints

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ClientBatchRequest("alice", [])

    def test_simulated_frontend_fans_out_and_responds(self, sim):
        config = ClusterConfig(
            num_nodes=2,
            node=HashNodeConfig(ram_cache_entries=512, bloom_expected_items=50_000, ssd_buckets=1 << 10),
        )
        deployment = build_simulated_service(sim, config, num_clients=1, num_web_servers=1)
        fingerprints = [synthetic_fingerprint(i) for i in range(40)]
        request = ClientBatchRequest("client-0", fingerprints)
        responses = []
        deployment.network.rpc.call(
            "client-0", "web-0", request, request.payload_bytes,
            on_response=lambda response: responses.append((sim.now, response)),
        )
        sim.run()
        finish_time, response = responses[0]
        assert finish_time > 0
        assert [r.fingerprint for r in response.replies] == fingerprints
        assert len(response.plan.to_upload) == 40
        assert len(deployment.cluster) == 40


class TestBackupClient:
    def test_backup_uploads_only_unique_chunks(self):
        cluster = small_cluster()
        store = CloudObjectStore()
        frontend = WebFrontEnd("web-0", cluster)
        client = BackupClient("alice", frontend, store, FixedSizeChunker(128), batch_size=16)
        data = os.urandom(128 * 20)
        plan_first = client.backup(data)
        plan_second = client.backup(data)
        assert len(plan_first.to_upload) == 20
        assert len(plan_second.to_upload) == 0
        assert store.total_bytes() == len(data)

    def test_uploaded_chunks_match_fingerprints(self):
        cluster = small_cluster()
        store = CloudObjectStore(verify_content=True)
        frontend = WebFrontEnd("web-0", cluster)
        client = BackupClient("alice", frontend, store, FixedSizeChunker(64), batch_size=8)
        data = os.urandom(640)
        client.backup(data)
        for chunk_start in range(0, len(data), 64):
            digest = fingerprint_data(data[chunk_start:chunk_start + 64]).digest
            assert digest in store

    def test_backup_plan_is_the_batch_plans_concatenated_in_order(self):
        frontend = WebFrontEnd("web-0", small_cluster())
        client = BackupClient("alice", frontend, chunker=FixedSizeChunker(64), batch_size=3)
        batch_plans = []
        handle_batch = frontend.handle_batch

        def recording(request):
            response = handle_batch(request)
            batch_plans.append(response.plan)
            return response

        frontend.handle_batch = recording
        data = os.urandom(64 * 6) * 2 + os.urandom(64 * 5)  # 17 chunks, 6 repeated
        plan = client.backup(data)
        assert len(batch_plans) == 6
        assert plan.to_upload == [fp for part in batch_plans for fp in part.to_upload]
        assert plan.already_stored == [fp for part in batch_plans for fp in part.already_stored]
        assert (len(plan.to_upload), len(plan.already_stored)) == (11, 6)
        # Merging in place leaves every batch's own plan as it was.
        assert sum(part.total_chunks for part in batch_plans) == plan.total_chunks == 17

    def test_two_clients_share_the_dedup_domain(self):
        cluster = small_cluster()
        store = CloudObjectStore()
        frontend = WebFrontEnd("web-0", cluster)
        data = os.urandom(4096)
        alice = BackupClient("alice", frontend, store, FixedSizeChunker(256))
        bob = BackupClient("bob", frontend, store, FixedSizeChunker(256))
        alice.backup(data)
        plan = bob.backup(data)
        assert len(plan.to_upload) == 0
        assert plan.bandwidth_savings == pytest.approx(1.0)


class TestSimulatedClient:
    def _deployment(self, sim, num_nodes=2):
        config = ClusterConfig(
            num_nodes=num_nodes,
            node=HashNodeConfig(ram_cache_entries=2048, bloom_expected_items=50_000, ssd_buckets=1 << 10),
        )
        return build_simulated_service(sim, config, num_clients=2, num_web_servers=2)

    def test_trace_replay_completes_and_counts(self, sim):
        deployment = self._deployment(sim)
        fingerprints = [synthetic_fingerprint(i % 300) for i in range(1000)]
        client = SimulatedClient(
            "client-0",
            deployment.network.rpc,
            deployment.load_balancer,
            fingerprints,
            batch_size=64,
            sim=sim,
        )
        client.start()
        sim.run()
        assert client.stats.fingerprints_sent == 1000
        assert client.stats.batches_sent == pytest.approx(1000 / 64, abs=1)
        assert client.stats.duplicates_found == 700
        assert client.stats.elapsed > 0
        assert client.stats.throughput > 0

    def test_two_clients_run_concurrently(self, sim):
        deployment = self._deployment(sim)
        clients = []
        for index in range(2):
            fingerprints = [synthetic_fingerprint(index * 10_000 + i) for i in range(400)]
            client = SimulatedClient(
                f"client-{index}",
                deployment.network.rpc,
                deployment.load_balancer,
                fingerprints,
                batch_size=32,
                sim=sim,
            )
            clients.append(client)
            client.start()
        sim.run()
        assert all(c.stats.fingerprints_sent == 400 for c in clients)
        # Concurrent execution: combined elapsed must be far less than serial.
        serial_estimate = sum(c.stats.elapsed for c in clients)
        assert max(c.stats.finished_at for c in clients) < serial_estimate

    def test_batching_improves_throughput(self, sim):
        fingerprints = [synthetic_fingerprint(i) for i in range(512)]
        throughputs = {}
        for batch_size in (1, 128):
            local_sim = Simulator()
            deployment = self._deployment(local_sim)
            client = SimulatedClient(
                "client-0",
                deployment.network.rpc,
                deployment.load_balancer,
                fingerprints,
                batch_size=batch_size,
                sim=local_sim,
            )
            client.start()
            local_sim.run()
            throughputs[batch_size] = client.stats.throughput
        assert throughputs[128] > throughputs[1] * 5

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_lanes_send_every_fingerprint_once_and_finish_with_the_last_lane(self, sim, window):
        deployment = self._deployment(sim, num_nodes=3)
        fingerprints = [synthetic_fingerprint((i * 7) % 130) for i in range(500)]
        client = SimulatedClient("client-0", deployment.network.rpc, deployment.load_balancer,
                                 fingerprints, batch_size=24, window=window, sim=sim)
        sent, answered, in_flight = [], [], [0]
        handlers = deployment.network.switch._handlers
        for endpoint, handler in list(handlers.items()):
            def logged(message, endpoint=endpoint, handler=handler):
                if endpoint.startswith("web") and message.reply_to is None:
                    sent.append(message.payload.fingerprints)
                    in_flight[0] += 1
                    assert in_flight[0] <= window
                elif endpoint == "client-0":
                    answered.append(sim.now)
                    in_flight[0] -= 1
                handler(message)
            handlers[endpoint] = logged
        client.start()
        sim.run()

        # Every fingerprint exactly once: the batches sent are the trace's
        # 24-long slices, each sent once, in whatever order the lanes ran.
        def digests(batch):
            return tuple(fp.digest for fp in batch)

        assert sorted(map(digests, sent)) == sorted(
            digests(fingerprints[start:start + 24]) for start in range(0, len(fingerprints), 24))
        # Counts as a set model has them: a digest is new once, then duplicate.
        stats = client.stats
        assert stats.batches_sent == len(sent) == -(-len(fingerprints) // 24)
        assert stats.fingerprints_sent == len(fingerprints)
        assert stats.duplicates_found == len(fingerprints) - len({fp.digest for fp in fingerprints})
        # Done when the last lane's last answer arrives, not before.
        assert len(answered) == len(sent)
        assert stats.finished_at == max(answered) > stats.started_at == 0.0

    def test_window_validation(self, sim):
        deployment = self._deployment(sim)
        with pytest.raises(ValueError):
            SimulatedClient(
                "client-0",
                deployment.network.rpc,
                deployment.load_balancer,
                [synthetic_fingerprint(1)],
                window=0,
                sim=sim,
            )


class TestBackupService:
    def test_end_to_end_backup_dedup(self):
        service = BackupService(
            ClusterConfig(
                num_nodes=4,
                node=HashNodeConfig(ram_cache_entries=4096, bloom_expected_items=100_000),
            ),
            batch_size=32,
        )
        data = os.urandom(8192 * 8)
        plan_alice = service.backup("alice", data)
        plan_bob = service.backup("bob", data)
        assert len(plan_alice.to_upload) == 8
        assert len(plan_bob.to_upload) == 0
        assert service.stored_fingerprints() == 8
        assert service.physical_bytes() == len(data)

    def test_client_is_sticky_to_a_web_server(self):
        service = BackupService(num_web_servers=3)
        first = service.client("alice")
        second = service.client("alice")
        assert first is second

    def test_stats_structure(self):
        service = BackupService()
        service.backup("alice", os.urandom(8192))
        stats = service.stats()
        assert {"cluster", "storage_distribution", "object_store", "web_servers"} <= set(stats)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackupService(num_web_servers=0)
