"""Tests for the RPC layer, load balancer policies and topology builder."""

from __future__ import annotations

import pytest

from repro.network.loadbalancer import LoadBalancer, RoundRobinPolicy
from repro.network.message import MESSAGE_HEADER_BYTES
from repro.network.rpc import RpcError, RpcLayer
from repro.network.switch import NetworkSwitch
from repro.network.topology import ClusterTopology
from repro.simulation.engine import Simulator


class TestRpcLayer:
    def _layer(self, sim):
        switch = NetworkSwitch(sim)
        return RpcLayer(switch, sim)

    def test_call_to_unknown_service_raises(self, sim):
        rpc = self._layer(sim)
        with pytest.raises(RpcError):
            rpc.call("client", "nowhere", None, payload_bytes=8)

    def test_simulated_call_round_trip(self, sim):
        rpc = self._layer(sim)
        rpc.register("server", lambda payload, respond: respond(payload + 1, 16))
        responses = []
        rpc.call("client", "server", 1, payload_bytes=64,
                 on_response=lambda value: responses.append((sim.now, value)))
        sim.run()
        assert responses[0][1] == 2
        assert responses[0][0] > 0.0

    def test_handler_returning_event_defers_response(self, sim):
        """A handler may answer later, from a callback of its own."""
        rpc = self._layer(sim)

        def slow_handler(payload, respond):
            sim.schedule(5.0, respond, payload, 8)

        rpc.register("server", slow_handler)
        responses = []
        rpc.call("client", "server", "x", payload_bytes=8,
                 on_response=lambda _value: responses.append(sim.now))
        sim.run()
        assert responses[0] > 5.0

    def test_call_from_process(self, sim):
        """A caller's chain continues in its response callback."""
        rpc = self._layer(sim)
        rpc.register("echo", lambda payload, respond: respond(payload, 64))
        results = []

        def caller():
            rpc.call("client", "echo", "ping", payload_bytes=16,
                     on_response=lambda reply: results.append((reply, sim.now)))

        sim.schedule(0.0, caller)
        sim.run()
        assert results[0][0] == "ping"
        assert results[0][1] > 0

    def test_concurrent_calls_complete_independently(self, sim):
        rpc = self._layer(sim)
        rpc.register("server", lambda payload, respond: respond(payload, 64))
        results = []
        for index in range(10):
            rpc.call("client", "server", index, payload_bytes=16, on_response=results.append)
        sim.run()
        assert sorted(results) == list(range(10))

    def test_response_is_sized_by_the_handler_not_by_its_shape(self, sim):
        """A payload that happens to be a ``(value, int)`` pair is answered
        whole and charged what the handler said, not the pair's int."""
        switch = NetworkSwitch(sim)
        rpc = RpcLayer(switch, sim)
        rpc.register("echo", lambda payload, respond: respond(payload, 16))
        replies = []
        rpc.call("client", "echo", ("chunk", 4096), payload_bytes=32, on_response=replies.append)
        sim.run()
        assert replies == [("chunk", 4096)]
        assert switch.stats()["client"]["received_bytes"] == 16 + MESSAGE_HEADER_BYTES

class TestLoadBalancerPolicies:
    def test_round_robin_cycles(self):
        policy = RoundRobinPolicy()
        backends = ["a", "b", "c"]
        picks = [policy.choose(backends, {}) for _ in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_round_robin_empty_backends(self):
        with pytest.raises(ValueError):
            RoundRobinPolicy().choose([], {})


class TestLoadBalancer:
    def test_assign_and_release_track_connections(self):
        balancer = LoadBalancer()
        balancer.add_backend("web-0")
        balancer.add_backend("web-1")
        first = balancer.assign()
        assert balancer.active_connections(first) == 1
        balancer.release(first)
        assert balancer.active_connections(first) == 0

    def test_release_without_active_raises(self):
        balancer = LoadBalancer()
        balancer.add_backend("web-0")
        with pytest.raises(ValueError):
            balancer.release("web-0")

    def test_duplicate_backend_rejected(self):
        balancer = LoadBalancer()
        balancer.add_backend("web-0")
        with pytest.raises(ValueError):
            balancer.add_backend("web-0")

    def test_round_robin_assignments_are_balanced(self):
        balancer = LoadBalancer()
        for index in range(4):
            balancer.add_backend(f"web-{index}")
        for _ in range(400):
            backend = balancer.assign()
            balancer.release(backend)
        assignments = balancer.assignments()
        assert all(count == 100 for count in assignments.values())


class TestClusterTopology:
    def test_name_generation(self):
        topology = ClusterTopology(num_clients=2, num_web_servers=3, num_hash_nodes=4)
        assert topology.client_names == ["client-0", "client-1"]
        assert topology.web_server_names == ["web-0", "web-1", "web-2"]
        assert topology.hash_node_names == ["hashnode-0", "hashnode-1", "hashnode-2", "hashnode-3"]
        assert len(topology.all_endpoints) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterTopology(num_clients=0)
        with pytest.raises(ValueError):
            ClusterTopology(num_web_servers=0)
        with pytest.raises(ValueError):
            ClusterTopology(num_hash_nodes=0)

    def test_build_network_attaches_every_endpoint(self, sim):
        topology = ClusterTopology(num_clients=1, num_web_servers=1, num_hash_nodes=2)
        network = topology.build_network(sim)
        for endpoint in topology.all_endpoints:
            assert network.switch.is_attached(endpoint)

    def test_built_network_supports_rpc(self, sim):
        topology = ClusterTopology(num_clients=1, num_web_servers=1, num_hash_nodes=1)
        network = topology.build_network(sim)
        network.rpc.register("hashnode-0", lambda payload, respond: respond(payload.upper(), 16))
        replies = []
        network.rpc.call("client-0", "hashnode-0", "hi", payload_bytes=16, on_response=replies.append)
        sim.run()
        assert replies == ["HI"]
