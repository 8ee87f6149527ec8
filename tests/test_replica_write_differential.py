"""One replica write path: the single-key paths against the per-reply oracle.

``SHHCCluster._propagate_new_groups`` is the cluster's only replica write.
The routed batch core hands it a served bucket's new pairs; the RPC handler
hands it one ``(digest, chunk_size)`` pair per new verdict.  Before that,
those paths resolved every reply with
``oracles.cluster_reference.resolve_reply``: consult the other live
replicas, read-repair on a holder, otherwise copy with the per-key
``insert_replica``.

Twin clusters -- the tree's ``SHHCCluster`` and the oracle's
``PerReplyCluster``, same config, same stream -- run the same scenario: a
grey-failing node (``FlakyNode`` at rate 0.1), a node marked down while new
fingerprints arrive, then marked up again so its missed writes are
read-repaired.  The tree serves through ``lookup_batch_columns``, one key or
97 at a time (its columns lifted to replies by
``oracles.replies.cluster_lookup_batch``); the oracle through
``lookup_reply_reference`` or ``lookup_batch_replies_reference``, so a
refused bucket is retried by the oracle's own per-key loop.  Replies, node
counters, stores, read repairs and failovers must agree, at replication 1
(the flaky node only: with a node down a key has no live replica), 2 and 3,
on the range partitioner and a 16-vnode ring, with and without a cost model.
Two differences are by design: the oracle charges no served lookup to the
ledger (the ledgers agree on their replica writes), and at replication 1 the
tree's batch retries draw fewer refusals from the flaky node than the
oracle's per-key ones.
"""

from __future__ import annotations

import pytest
from oracles.cluster_reference import (
    PerReplyCluster,
    lookup_batch_replies_reference,
    lookup_reply_reference,
)
from oracles.replies import cluster_lookup, cluster_lookup_batch
from oracles.set_model import set_verdicts

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


def _replica_writes(cluster):
    """What every ledger charges alike: the replica entries shipped."""
    ledger = cluster.ledger
    return None if ledger is None else (ledger.counters["replica_writes"],
                                        ledger.counters["replica_bytes"])


def _replies(replies) -> list:
    return [(r.fingerprint, r.is_duplicate, r.served_from, r.node_id, r.service_time)
            for r in replies]


def _run(cluster, serve) -> list:
    make_flaky(cluster, _FLAKY, failure_rate=0.1, seed=3)
    warm, while_down, after = _phases()
    replicated = cluster.config.replication_factor > 1
    out = serve(cluster, warm)
    if replicated:
        cluster.mark_down(_DOWN)
    out += serve(cluster, while_down)
    if replicated:
        cluster.mark_up(_DOWN)
    return out + serve(cluster, after)


def _per_key(cluster, fingerprints):
    """One-key lookups: the routed core, or the oracle's per-key failover loop."""
    lookup = lookup_reply_reference if isinstance(cluster, PerReplyCluster) else cluster_lookup
    return [lookup(cluster, fingerprint) for fingerprint in fingerprints]


def _batched(cluster, fingerprints, size=97):
    """97-key batches: the routed core, or the oracle's per-reply batch path."""
    lookup = (lookup_batch_replies_reference if isinstance(cluster, PerReplyCluster)
              else cluster_lookup_batch)
    out = []
    for start in range(0, len(fingerprints), size):
        out += lookup(cluster, fingerprints[start:start + size])
    return out


def test_the_oracle_overrides_only_methods_the_cluster_has():
    """An override of a name the cluster dropped would leave both twins
    running the tree's code, and every twin test passing vacuously."""
    overridden = [name for name, value in vars(PerReplyCluster).items() if callable(value)]
    assert overridden
    assert [name for name in overridden if not callable(getattr(SHHCCluster, name, None))] == []


@pytest.mark.parametrize("cost", [False, True], ids=["free", "cost-model"])
@pytest.mark.parametrize("virtual_nodes", [0, 16], ids=["range", "ring16"])
@pytest.mark.parametrize("replication", [1, 2, 3])
@pytest.mark.parametrize("serve", [_per_key, _batched],
                         ids=["per_key", "batched"])
def test_single_key_replica_writes_match_the_per_reply_oracle(serve, replication, virtual_nodes,
                                                              cost):
    tree, oracle = _twins(replication, virtual_nodes, cost)
    tree_replies, oracle_replies = _run(tree, serve), _run(oracle, serve)
    assert _replies(tree_replies) == _replies(oracle_replies)
    tree_state, oracle_state = _state(tree), _state(oracle)
    # The oracle charges no served lookup; the tree charges each one once.
    tree_state.pop("ledger"), oracle_state.pop("ledger")
    assert _replica_writes(tree) == _replica_writes(oracle)
    if cost:
        assert tree.ledger.counters["lookups"] == len(tree_replies)
    if serve is _batched and replication == 1:
        # The tree retries a refused bucket as one batch, the oracle key by
        # key: back on the one flaky node, that is fewer draws to refuse.
        assert 0 < tree_state.pop("failovers") < oracle_state.pop("failovers")
    assert tree_state == oracle_state
    # The scenario reaches what it is there for.
    assert tree.failovers > 0
    if replication > 1:
        assert tree.read_repairs > 0
        assert any(r.served_from is ServedFrom.REPAIR for r in tree_replies)
        assert sum(node.counters["replica_inserts"] for node in tree.nodes.values()) > 0


@pytest.mark.parametrize("virtual_nodes", [0, 16], ids=["range", "ring16"])
@pytest.mark.parametrize("replication", [2, 3])
@pytest.mark.parametrize("serve", [_per_key, _batched],
                         ids=["per_key", "batched"])
def test_two_flaky_nodes_keep_verdicts_stores_and_repairs(serve, replication, virtual_nodes):
    """Rate 0.4 on two nodes, which share some replica sets: a retry can be
    refused again and go back to the first refuser.  The two paths then draw
    different refusals and may serve a key from different replicas, so a
    RAM hit on one side can be an SSD hit on the other; verdicts, stores
    and read repairs still agree, and the verdicts are the set model's."""
    tree, oracle = _twins(replication, virtual_nodes, False)
    warm, while_down, after = _phases()
    stream = warm + while_down + after
    for cluster in (tree, oracle):
        for seed, name in enumerate((_FLAKY, "hashnode-2")):
            make_flaky(cluster, name, failure_rate=0.4, seed=3 + seed)
    tree_replies, oracle_replies = serve(tree, stream), serve(oracle, stream)
    verdicts = [reply.is_duplicate for reply in tree_replies]
    assert verdicts == [reply.is_duplicate for reply in oracle_replies]
    assert verdicts == set_verdicts([fingerprint.digest for fingerprint in stream], set())
    tree_state, oracle_state = _state(tree), _state(oracle)
    assert tree_state["read_repairs"] == oracle_state["read_repairs"]
    assert ({name: state[1] for name, state in tree_state["nodes"].items()}
            == {name: state[1] for name, state in oracle_state["nodes"].items()})
    assert tree.failovers > 0


@pytest.mark.parametrize("virtual_nodes", [0, 16], ids=["range", "ring16"])
def test_a_refused_bucket_at_replication_1_is_retried_as_one_batch(virtual_nodes):
    """At k = 1 every retry goes back to the one flaky node.  Retried key by
    key, each key of a refused bucket draws afresh, so at rate 0.4 a bucket
    of dozens of keys almost surely holds one refused ``MAX_NODE_ATTEMPTS``
    times and the request aborts; retried as a batch, the bucket draws once
    per retry."""
    cluster = SHHCCluster(_config(1, virtual_nodes))
    make_flaky(cluster, _FLAKY, failure_rate=0.4, seed=3)
    warm, _while_down, after = _phases()
    replies = _batched(cluster, warm) + _batched(cluster, after)
    assert [reply.is_duplicate for reply in replies] == set_verdicts(
        [fingerprint.digest for fingerprint in warm + after], set())
    assert cluster.failovers > 0


def _ledger(cluster) -> tuple:
    ledger = cluster.ledger
    return (dict(ledger.counters), dict(ledger.busy_until), ledger.control_plane_cpu_seconds,
            ledger.last_completion,
            {phase: (tally.counts, tally.count, tally.total)
             for phase, tally in ledger.phases.items()})


@pytest.mark.parametrize("virtual_nodes", [0, 16], ids=["range", "ring16"])
def test_a_single_lookup_is_charged_as_a_one_key_batch(virtual_nodes):
    """A cost model charges every served key: a loop of ``lookup`` leaves
    the ledger a loop of one-key ``lookup_batch_columns`` leaves."""
    single, batched = (SHHCCluster(_config(2, virtual_nodes), cost_model=CostModel())
                       for _ in range(2))
    fingerprints = [synthetic_fingerprint(i % 400) for i in range(600)]
    singles = [single.lookup(fingerprint) for fingerprint in fingerprints]
    batches = [cluster_lookup_batch(batched, [fingerprint])[0] for fingerprint in fingerprints]
    assert [(r.fingerprint, r.is_duplicate, r.served_by, r.latency) for r in singles] == [
        (r.fingerprint, r.is_duplicate, r.node_id, r.service_time) for r in batches]
    assert _ledger(single) == _ledger(batched)
    assert single.ledger.counters["lookups"] == len(fingerprints)


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
