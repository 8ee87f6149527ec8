"""Tests for the simulated front-end tier: web servers, clients, gateway."""

from __future__ import annotations

import pytest

from repro.core.config import ClusterConfig, HashNodeConfig
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.frontend.client import SimulatedClient
from repro.frontend.gateway import build_simulated_service
from repro.frontend.webserver import PER_REQUEST_OVERHEAD, ClientBatchRequest, ClientBatchResponse
from repro.simulation.engine import Simulator


def _ask_web_server(sim, fingerprints, num_nodes=2):
    """One client batch through a simulated deployment; ``(deployment, at, response)``."""
    config = ClusterConfig(
        num_nodes=num_nodes,
        node=HashNodeConfig(ram_cache_entries=512, bloom_expected_items=50_000, ssd_buckets=1 << 10),
    )
    deployment = build_simulated_service(sim, config, num_clients=1, num_web_servers=1)
    request = ClientBatchRequest("client-0", fingerprints)
    responses = []
    deployment.network.rpc.call(
        "client-0", "web-0", request, request.payload_bytes,
        on_response=lambda response: responses.append((sim.now, response)),
    )
    sim.run()
    return (deployment, *responses[0])


class TestWebFrontEnd:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ClientBatchRequest("alice", [])

    def test_simulated_frontend_fans_out_and_responds(self, sim):
        fingerprints = [synthetic_fingerprint(i % 30) for i in range(40)]
        deployment, finish_time, response = _ask_web_server(sim, fingerprints)
        assert finish_time > 0
        assert response.fingerprints == fingerprints
        assert [bool(tier) for tier in response.tiers] == [i >= 30 for i in range(40)]
        assert response.duplicates == 10
        assert len(deployment.cluster) == 30

    def test_verdicts_are_returned_in_request_order(self, sim):
        """Each node answers its share; the response's columns are in the
        request's order, each key's verdict from the node that owns it."""
        fingerprints = [synthetic_fingerprint(i) for i in range(64)]
        deployment, _at, response = _ask_web_server(sim, fingerprints, num_nodes=4)
        owners = [deployment.cluster.owner_of(fingerprint) for fingerprint in fingerprints]
        assert len(set(owners)) == 4
        assert list(response.node_ids) == owners
        assert len(response.tiers) == len(response.service_times) == 64


    def test_the_fan_out_leaves_one_request_overhead_after_arrival(self, sim):
        """The web server spends ``PER_REQUEST_OVERHEAD`` on a request before
        it calls the owning nodes, all at one instant, one call per node."""
        config = ClusterConfig(num_nodes=3, node=HashNodeConfig(
            ram_cache_entries=512, bloom_expected_items=50_000, ssd_buckets=1 << 10))
        deployment = build_simulated_service(sim, config, num_clients=1, num_web_servers=1)
        rpc, web = deployment.network.rpc, deployment.web_servers["web-0"]
        arrivals, node_calls = [], []

        def arrive(request, respond):
            arrivals.append(sim.now)
            web._handle(request, respond)

        def call(source, destination, *args, _call=rpc.call, **kwargs):
            if source == "web-0":
                node_calls.append((sim.now, destination))
            return _call(source, destination, *args, **kwargs)

        rpc.register("web-0", arrive)
        rpc.call = call
        fingerprints = [synthetic_fingerprint(i) for i in range(48)]
        request = ClientBatchRequest("client-0", fingerprints)
        responses = []
        rpc.call("client-0", "web-0", request, request.payload_bytes, responses.append)
        sim.run()
        assert len(arrivals) == 1 and arrivals[0] > 0
        owners = {deployment.cluster.owner_of(fingerprint) for fingerprint in fingerprints}
        assert sorted(node for _at, node in node_calls) == sorted(owners)
        assert [at for at, _node in node_calls] == pytest.approx(
            [arrivals[0] + PER_REQUEST_OVERHEAD] * len(owners))
        assert len(responses) == 1 and list(responses[0].fingerprints) == fingerprints

    def test_every_nonzero_tier_is_a_duplicate(self):
        """A falsy tier is a chunk to upload; RAM, SSD and read-repair
        verdicts (tiers 1-3) are all duplicates."""
        fingerprints = [synthetic_fingerprint(i) for i in range(5)]
        response = ClientBatchResponse("alice", fingerprints, [0, 1, 2, 3, 0],
                                       [1e-6] * 5, ["n0"] * 5)
        assert response.duplicates == 3
        assert response.payload_bytes == 32 + 9 * 5


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
