"""Allocation budget of the batch path, in GC-tracked objects per key.

CPython's cyclic collector runs after a net 700 container allocations and
a full pass walks everything the *caller* keeps alive, so each per-key
container the batch path allocates is paid for in collector passes (PR 16
measured 29% of ``lookup_batch`` wall time there).  The budget: a served
key allocates exactly one such object -- the result the API returns.

``gc.get_count()[0]`` is the collector's own allocation counter (container
allocations minus deallocations since the last pass); with the collector
disabled it is an exact, deterministic meter.  ``gc.collect()`` also empties
CPython's tuple/list free lists, and objects parked there on deallocation
are not counted as freed; the cluster measurement therefore takes one
unmeasured call first, the node measurement does not (so it counts the
new-pair tuples it returns).
"""

import gc

import pytest

from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.digest_batch import DigestBatch
from repro.core.hash_node import HybridHashNode
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.serving.wire import JsonCodec, decode_payload, encode_batch_frame
from repro.serving.worker import WorkerCore

KEYS = 2048
NODE_CONFIG = HashNodeConfig(ram_cache_entries=1024, bloom_expected_items=50_000)
FINGERPRINTS = [synthetic_fingerprint(index) for index in range(3 * KEYS)]


def half_new_batch(call):
    """``KEYS`` fingerprints, half of them already served by the previous call."""
    start = call * KEYS // 2
    return FINGERPRINTS[start:start + KEYS]


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield lambda: gc.get_count()[0]
    finally:
        gc.enable()


def test_cluster_lookup_batch_allocates_one_object_per_key(collector_off):
    cluster = SHHCCluster(ClusterConfig(num_nodes=4, replication_factor=2, node=NODE_CONFIG))
    cluster.lookup_batch(half_new_batch(0))
    cluster.lookup_batch(half_new_batch(1))  # refills the free lists gc.collect() emptied
    for call in (2, 3):
        batch = half_new_batch(call)
        start = collector_off()
        results = cluster.lookup_batch(batch)
        held = collector_off() - start
        assert sum(result.is_duplicate for result in results) == KEYS // 2
        del results
        assert held <= 1.1 * KEYS, f"{held / KEYS:.2f} tracked allocations per key"
        # Not 0: the packed backend memoizes one ``struct.Struct`` per
        # distinct bucket size (bounded state, not per-key garbage).
        assert abs(collector_off() - start) <= 64


def test_node_serve_allocates_only_the_new_pairs(collector_off):
    node = HybridHashNode("n0", NODE_CONFIG)
    node.serve_bucket_verdicts(DigestBatch.from_fingerprints(half_new_batch(0)))
    batch = DigestBatch.from_fingerprints(half_new_batch(1))
    gc.collect()
    start = collector_off()
    tiers, _service_times, new_pairs = node.serve_bucket_verdicts(batch)
    grown = collector_off() - start
    assert len(new_pairs) == tiers.count(0) == KEYS // 2
    assert grown <= 0.6 * KEYS, f"{grown / KEYS:.2f} tracked allocations per key"


def test_worker_shaped_serve_grows_nothing_per_batch(collector_off):
    """The worker core's frame -> decode -> serve -> encode -> one histogram
    observe, 1 000 times over.

    A histogram is a fixed array of integers: measuring a batch must leave
    the process's tracked-object count where it started, whatever the
    number of keys or of batches.  (The batches are RAM hits, so the node
    itself keeps nothing new either.)
    """
    node = HybridHashNode("n0", NODE_CONFIG)
    core = WorkerCore(node, JsonCodec)
    registry = core.registry
    histogram = registry.histogram("serve_batch")
    frame = encode_batch_frame(b"".join(fp.digest for fp in FINGERPRINTS[:128]), 8192)

    def serve_one():
        (reply,) = core.on_bytes(frame)
        return reply

    first = serve_one()
    reply = serve_one()
    assert decode_payload(first[4:])["new"] == 128 and decode_payload(reply[4:])["new"] == 0
    for _ in range(200):  # refill the free lists the fixture's gc.collect() emptied
        serve_one()
    buckets = len(histogram.counts)
    start = collector_off()
    for _ in range(1_000):
        assert serve_one() == reply
    grown = collector_off() - start
    assert abs(grown) <= 8, f"{grown} tracked objects over 1 000 batches"
    assert histogram.count == 1_202 and len(histogram.counts) == buckets
    assert list(registry.histograms) == ["serve_batch"] and node.lookup_latency.count == 0

