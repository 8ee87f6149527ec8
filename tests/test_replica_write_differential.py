"""One replica write path: the single-key paths against the per-reply oracle.

``SHHCCluster._propagate_new_groups`` is the cluster's only replica write.
The routed batch core hands it a served bucket's new pairs; the failover
loop behind ``lookup_reply`` (also a refused bucket's per-key retries) and
the RPC handler hand it one ``(digest, chunk_size)`` pair per new verdict.
Before that, those paths resolved every reply with
``oracles.cluster_reference.resolve_reply``: consult the other live
replicas, read-repair on a holder, otherwise copy with the per-key
``insert_replica``.

Twin clusters -- the tree's ``SHHCCluster`` and the oracle's
``PerReplyCluster``, same config, same stream -- run the same scenario: a
grey-failing node (``FlakyNode`` at rate 0.1), a node marked down while
new fingerprints arrive, then marked up again so its missed writes are
read-repaired.  Replies, node counters, stores, read repairs, failovers,
the ledger's counters and every node's ``busy_until`` must agree, at
replication 2 and 3, on the range partitioner and a 16-vnode ring, with
and without a cost model.
"""

from __future__ import annotations

import pytest
from oracles.cluster_reference import PerReplyCluster

from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.fault_injection import make_flaky
from repro.core.protocol import ServedFrom
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.network.topology import ClusterTopology
from repro.simulation.costmodel import CostModel
from repro.simulation.engine import Simulator

_NODES = 4
_FLAKY, _DOWN = "hashnode-0", "hashnode-1"


def _config(replication: int, virtual_nodes: int) -> ClusterConfig:
    return ClusterConfig(
        num_nodes=_NODES,
        replication_factor=replication,
        virtual_nodes=virtual_nodes,
        node=HashNodeConfig(ram_cache_entries=64, bloom_expected_items=20_000, ssd_buckets=1 << 6,
                            ssd_write_buffer_pages=2),
    )


def _twins(replication, virtual_nodes, cost, sim_factory=lambda: None):
    return tuple(
        cls(_config(replication, virtual_nodes), sim=sim_factory(),
            cost_model=CostModel() if cost else None)
        for cls in (SHHCCluster, PerReplyCluster)
    )


def _phases():
    """Warm keys, keys first seen while ``_DOWN`` is down, then both again."""
    warm = [synthetic_fingerprint(i % 500) for i in range(900)]
    while_down = [synthetic_fingerprint(10_000 + i) for i in range(400)]
    after = while_down + [synthetic_fingerprint(20_000 + i % 300) for i in range(500)] + warm[:300]
    return warm, while_down, after


def _state(cluster) -> dict:
    ledger = cluster.ledger
    return {
        "nodes": {
            name: (dict(node.counters), sorted(node.store.items()), node.store.stats(),
                   node.cache.stats(), node.lookup_latency.count, node.lookup_latency.total)
            for name, node in cluster.nodes.items()
        },
        "read_repairs": cluster.read_repairs,
        "failovers": cluster.failovers,
        "ledger": None if ledger is None else (
            dict(ledger.counters), dict(ledger.busy_until), ledger.control_plane_cpu_seconds,
            ledger.last_completion,
        ),
    }


def _replies(replies) -> list:
    return [(r.fingerprint, r.is_duplicate, r.served_from, r.node_id, r.service_time)
            for r in replies]


def _run(cluster, serve) -> list:
    make_flaky(cluster, _FLAKY, failure_rate=0.1, seed=3)
    warm, while_down, after = _phases()
    out = serve(cluster, warm)
    cluster.mark_down(_DOWN)
    out += serve(cluster, while_down)
    cluster.mark_up(_DOWN)
    return out + serve(cluster, after)


def _per_key(cluster, fingerprints):
    return [cluster.lookup_reply(fingerprint) for fingerprint in fingerprints]


def _batched(cluster, fingerprints, size=97):
    out = []
    for start in range(0, len(fingerprints), size):
        out += cluster.lookup_batch_replies(fingerprints[start:start + size])
    return out


@pytest.mark.parametrize("cost", [False, True], ids=["free", "cost-model"])
@pytest.mark.parametrize("virtual_nodes", [0, 16], ids=["range", "ring16"])
@pytest.mark.parametrize("replication", [2, 3])
@pytest.mark.parametrize("serve", [_per_key, _batched],
                         ids=["lookup_reply", "lookup_batch_replies"])
def test_single_key_replica_writes_match_the_per_reply_oracle(serve, replication, virtual_nodes,
                                                              cost):
    tree, oracle = _twins(replication, virtual_nodes, cost)
    tree_replies, oracle_replies = _run(tree, serve), _run(oracle, serve)
    assert _replies(tree_replies) == _replies(oracle_replies)
    assert _state(tree) == _state(oracle)
    # The scenario reaches what it is there for.
    assert tree.read_repairs > 0 and tree.failovers > 0
    assert any(r.served_from is ServedFrom.REPAIR for r in tree_replies)
    assert sum(node.counters["replica_inserts"] for node in tree.nodes.values()) > 0


def _rpc_run(cluster) -> list:
    """Every phase as per-node RPC batches; replies as they arrive."""
    network = ClusterTopology(num_clients=1, num_web_servers=1,
                              num_hash_nodes=_NODES).build_network(cluster.sim)
    cluster.register_services(network.rpc)
    received = []

    def serve(fingerprints, size=128):
        for start in range(0, len(fingerprints), size):
            routed = cluster.route_batch(fingerprints[start:start + size], "client-0", start)
            for node, (request, _positions) in routed.items():
                network.rpc.call("client-0", node, request, request.payload_bytes,
                                 received.append)
            cluster.sim.run()

    warm, while_down, after = _phases()
    serve(warm)
    cluster.mark_down(_DOWN)
    serve(while_down)
    cluster.mark_up(_DOWN)
    serve(after)
    return [(reply.node_id, reply.batch_id, list(reply.tiers), list(reply.service_times))
            for reply in received]


@pytest.mark.parametrize("cost", [False, True], ids=["free", "cost-model"])
@pytest.mark.parametrize("virtual_nodes", [0, 16], ids=["range", "ring16"])
def test_rpc_handler_replica_writes_match_the_per_reply_oracle(virtual_nodes, cost):
    """At k = 2 a ``FlakyNode`` has no part here: a refused ``serve_batch``
    raises out of the handler, the RPC layer has no failover."""
    tree, oracle = _twins(2, virtual_nodes, cost, sim_factory=Simulator)
    tree_replies, oracle_replies = _rpc_run(tree), _rpc_run(oracle)
    assert tree_replies == oracle_replies
    assert _state(tree) == _state(oracle)
    assert tree.read_repairs > 0
    assert tree.sim.now == oracle.sim.now
