"""The callback/column request path against the ``Event``/generator model.

Both rigs build the same simulated deployment -- clients, load balancer, web
front-ends, hash nodes on one switched fabric -- from the same random
parameters: 1-4 nodes, replication 1-2 (one node down for a while at k = 2
when there are spares), batches of 1..2048, 1-3 web servers, 1-3 lanes per
client, and figure-1-style single-fingerprint calls sent straight to the
owner nodes at random instants.  Node sizing makes every branch common: tiny
RAM tiers and write buffers (SSD holds, buffer flushes), one or two CPU
slots (grants queued behind a release), and a zero-CPU variant (no CPU
hold at all).

The product rig (``build_simulated_service``) must pop the same calendar
entries in the same order as the model (``tests/oracles/event_path.py``),
so every message must arrive at the same instant and endpoint with the same
content, and the engine's event count, client stats, node counters,
latency recorders and front-end stats must agree exactly.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.event_path import EventSimulatedClient, build_event_service

from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.protocol import BatchLookupRequest
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.frontend.client import SimulatedClient
from repro.frontend.gateway import build_simulated_service
from repro.frontend.webserver import ClientBatchRequest
from repro.simulation.engine import Simulator


def _replies(replies) -> tuple:
    return tuple(
        (reply.fingerprint.digest, reply.is_duplicate, reply.served_from, reply.node_id,
         reply.service_time)
        for reply in replies
    )


def _content(payload) -> tuple:
    """A message payload as plain data, whichever shape carries it."""
    if isinstance(payload, BatchLookupRequest):
        return ("lookup", payload.client_id, payload.batch_id,
                tuple(fingerprint.digest for fingerprint in payload.fingerprints))
    if isinstance(payload, ClientBatchRequest):
        return ("backup", payload.client_id, payload.request_id,
                tuple(fingerprint.digest for fingerprint in payload.fingerprints))
    if hasattr(payload, "plan"):
        plan = payload.plan
        return ("plan", payload.client_id, payload.request_id, _replies(payload.replies),
                tuple(fingerprint.digest for fingerprint in plan.to_upload),
                tuple(fingerprint.digest for fingerprint in plan.already_stored))
    return ("verdicts", payload.node_id, payload.batch_id, _replies(payload.replies))


def _recorder(recorder) -> tuple:
    summary = recorder.summary
    return (summary.count, summary.total, summary.mean, summary._m2, summary.minimum,
            summary.maximum, recorder.reservoir.seen, tuple(recorder.reservoir.values()))


def _replay(build, client_class, params) -> dict:
    sim = Simulator()
    node = HashNodeConfig(
        ram_cache_entries=params["ram"],
        bloom_expected_items=20_000,
        ssd_buckets=1 << 8,
        ssd_write_buffer_pages=params["write_buffer"],
        service_concurrency=params["cpus"],
        cpu_per_lookup=0.0 if params["free_cpu"] else 20e-6,
        cpu_per_request=0.0 if params["free_cpu"] else 15e-6,
    )
    config = ClusterConfig(num_nodes=params["nodes"], replication_factor=params["replication"],
                           node=node)
    deployment = build(sim, config, num_clients=len(params["traces"]),
                       num_web_servers=params["web_servers"])
    cluster, network = deployment.cluster, deployment.network
    if params["down"]:
        # Down from the start, back at ``up_at``: keys written meanwhile
        # are then answered by read repair.
        cluster.mark_down(cluster.node_names[0])
        sim.schedule(params["up_at"], cluster.mark_up, cluster.node_names[0])

    log = []
    handlers = network.switch._handlers
    for endpoint, handler in list(handlers.items()):
        def logged(message, endpoint=endpoint, handler=handler):
            log.append((sim.now, endpoint, message.source, message.payload_bytes,
                        message.reply_to is not None, _content(message.payload)))
            handler(message)
        handlers[endpoint] = logged

    clients = []
    for index, trace in enumerate(params["traces"]):
        client = client_class(
            f"client-{index}", network.rpc, deployment.load_balancer,
            [synthetic_fingerprint(identity) for identity in trace],
            batch_size=params["batch"], window=params["window"], sim=sim,
        )
        clients.append(client)
        client.start()

    rpc = network.rpc
    for tag, (at, identity) in enumerate(params["singles"]):
        def send(tag=tag, identity=identity):
            fingerprint = synthetic_fingerprint(identity)
            owner = next(name for name in cluster.replica_set(fingerprint)
                         if not cluster.is_down(name))
            request = BatchLookupRequest([fingerprint], client_id="driver")

            def answered(reply, tag=tag):
                log.append((sim.now, "single", tag, _replies(reply.replies)))

            if client_class is SimulatedClient:
                rpc.call("client-0", owner, request, request.payload_bytes, answered)
            else:
                rpc.call("client-0", owner, request, request.payload_bytes).add_callback(
                    lambda event: answered(event.value))
        sim.schedule(at, send)

    sim.run()
    return {
        "log": log,
        "events": sim.events_processed,
        "now": sim.now,
        "clients": [
            (c.stats.fingerprints_sent, c.stats.batches_sent, c.stats.duplicates_found,
             c.stats.started_at, c.stats.finished_at, _recorder(c.stats.request_latency))
            for c in clients
        ],
        "nodes": {
            name: (node.counters.as_dict(), _recorder(node.lookup_latency), len(node.store))
            for name, node in cluster.nodes.items()
        },
        "web": {
            name: (server.counters.as_dict(), _recorder(server.response_latency))
            for name, server in deployment.web_servers.items()
        },
        "cluster": (cluster.read_repairs, cluster.failovers),
        "balancer": deployment.load_balancer.assignments(),
    }


@st.composite
def deployments(draw) -> dict:
    nodes = draw(st.integers(1, 4))
    replication = draw(st.integers(1, min(2, nodes)))
    identities = draw(st.integers(1, 400))
    trace = st.lists(st.integers(0, identities - 1), max_size=300)
    return {
        "nodes": nodes,
        "replication": replication,
        "down": replication > 1 and nodes > 2 and draw(st.booleans()),
        "up_at": draw(st.integers(0, 80)) * 25e-6,
        "web_servers": draw(st.integers(1, 3)),
        "window": draw(st.integers(1, 3)),
        "batch": draw(st.one_of(st.sampled_from([1, 2, 128, 2048]), st.integers(1, 2048))),
        "traces": draw(st.lists(trace, min_size=1, max_size=2)),
        "singles": draw(st.lists(
            st.tuples(st.integers(0, 40).map(lambda tick: tick * 25e-6), st.integers(0, 30)),
            max_size=12,
        )),
        "ram": draw(st.sampled_from([2, 16, 4096])),
        "write_buffer": draw(st.sampled_from([1, 2, 64])),
        "cpus": draw(st.integers(1, 2)),
        "free_cpu": draw(st.booleans()),
    }


@settings(max_examples=150, deadline=None)
@given(deployments())
def test_callback_path_matches_the_event_model(params):
    expected = _replay(build_event_service, EventSimulatedClient, params)
    assert _replay(build_simulated_service, SimulatedClient, params) == expected


def test_window_two_deployment_matches_the_event_model():
    """A fixed multi-lane, replicated, multi-node case the strategy can shrink to."""
    params = {
        "nodes": 3, "replication": 2, "down": True, "up_at": 1e-3, "web_servers": 2, "window": 2,
        "batch": 16, "traces": [[i % 90 for i in range(200)], [i % 70 for i in range(150)]],
        "singles": [(0.0, 1), (50e-6, 2), (50e-6, 1)], "ram": 16, "write_buffer": 2,
        "cpus": 1, "free_cpu": False,
    }
    expected = _replay(build_event_service, EventSimulatedClient, params)
    assert any(entry[1] == "single" for entry in expected["log"])
    assert expected["cluster"][0] > 0  # read repairs happened
    assert _replay(build_simulated_service, SimulatedClient, params) == expected
