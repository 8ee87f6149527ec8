"""Tests for the hybrid hash node (the paper's Figure 3/4 behaviour)."""

from __future__ import annotations

import pytest
from oracles import node_reference

from repro.core.config import HashNodeConfig
from repro.core.hash_node import HybridHashNode
from repro.core.protocol import BatchLookupRequest, ServedFrom
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.simulation.engine import Simulator


def make_node(sim=None, **overrides) -> HybridHashNode:
    defaults = dict(ram_cache_entries=64, bloom_expected_items=10_000, ssd_buckets=1 << 10)
    defaults.update(overrides)
    return HybridHashNode("node-0", HashNodeConfig(**defaults), sim=sim)


class TestLookupFlow:
    def test_unknown_fingerprint_is_unique_and_inserted(self):
        node = make_node()
        fingerprint = synthetic_fingerprint(1)
        reply = node.lookup(fingerprint)
        assert reply.is_duplicate is False
        assert reply.served_from is ServedFrom.NEW
        assert len(node) == 1
        assert fingerprint in node

    def test_repeat_lookup_is_ram_hit(self):
        node = make_node()
        fingerprint = synthetic_fingerprint(1)
        node.lookup(fingerprint)
        reply = node.lookup(fingerprint)
        assert reply.is_duplicate is True
        assert reply.served_from is ServedFrom.RAM

    def test_evicted_fingerprint_served_from_ssd(self):
        node = make_node(ram_cache_entries=4)
        target = synthetic_fingerprint(0)
        node.lookup(target)
        # Push enough other fingerprints through to evict the target from RAM.
        for index in range(1, 50):
            node.lookup(synthetic_fingerprint(index))
        assert target.digest not in node.cache
        reply = node.lookup(target)
        assert reply.is_duplicate is True
        assert reply.served_from is ServedFrom.SSD
        # The SSD hit promotes it back into RAM.
        assert target.digest in node.cache

    def test_destage_counter_increments_on_eviction(self):
        """One destage per RAM-tier eviction, on the per-key and the batch
        path alike, and cumulative across ``kill()`` (which rebuilds the cache)."""
        node, batched = make_node(ram_cache_entries=4), make_node(ram_cache_entries=4)
        fingerprints = [synthetic_fingerprint(index) for index in range(20)]
        for fingerprint in fingerprints:
            node.lookup(fingerprint)
        batched.lookup_batch(fingerprints)
        assert node.snapshot().destages == batched.snapshot().destages == 16
        assert node.cache.evictions == batched.cache.evictions == 16
        for target in (node, batched):
            target.kill()
            target.restart()
            assert target.cache.evictions == 0 and target.snapshot().destages == 16
        for fingerprint in fingerprints[:6]:
            node.lookup(fingerprint)
        batched.lookup_batch(fingerprints[:6])
        assert node.snapshot().destages == batched.snapshot().destages == 18

    def test_bloom_negative_shortcut_avoids_ssd_read(self):
        node = make_node()
        before = node.store.page_reads
        node.lookup(synthetic_fingerprint(123))
        assert node.store.page_reads == before  # no SSD probe for a definite miss
        assert node.snapshot().bloom_negative_shortcuts == 1

    def test_ram_hit_is_cheaper_than_ssd_hit(self):
        node = make_node(ram_cache_entries=4)
        target = synthetic_fingerprint(0)
        node.lookup(target)
        ram_hit = node.lookup(target)
        for index in range(1, 50):
            node.lookup(synthetic_fingerprint(index))
        ssd_hit = node.lookup(target)
        assert ssd_hit.served_from is ServedFrom.SSD
        assert ram_hit.service_time < ssd_hit.service_time

    def test_lookup_batch_preserves_order_and_counts(self):
        node = make_node()
        fingerprints = [synthetic_fingerprint(i % 10) for i in range(30)]
        replies = node.lookup_batch(fingerprints)
        assert [r.fingerprint for r in replies] == fingerprints
        assert sum(1 for r in replies if not r.is_duplicate) == 10
        assert len(node) == 10

    def test_counters_consistency(self):
        node = make_node()
        for index in range(40):
            node.lookup(synthetic_fingerprint(index % 8))
        snapshot = node.snapshot()
        assert snapshot.lookups == 40
        assert snapshot.new_entries == 8
        assert snapshot.ram_hits + snapshot.ssd_hits + snapshot.new_entries == 40
        assert snapshot.entries == 8

    def test_contains_is_readonly(self):
        node = make_node()
        fingerprint = synthetic_fingerprint(5)
        assert fingerprint not in node
        assert len(node) == 0


class TestLookupTime:
    """``lookup_latency``: a lookup count and the seconds they took, summed in order."""

    def test_lookup_adds_its_reply_service_time(self):
        node = make_node()
        replies = [node.lookup(synthetic_fingerprint(i % 4)) for i in range(12)]
        assert node.lookup_latency.count == 12
        assert node.lookup_latency.total == pytest.approx(sum(r.service_time for r in replies))

    def test_lookup_batch_adds_one_lookup_per_key(self):
        looped, batched = make_node(), make_node()
        fingerprints = [synthetic_fingerprint(i % 10) for i in range(30)]
        for fingerprint in fingerprints:
            looped.lookup(fingerprint)
        replies = batched.lookup_batch(fingerprints)
        # Both add the per-key service times left to right: the totals are equal.
        assert batched.lookup_latency == looped.lookup_latency
        assert batched.lookup_latency.count == len(replies) == 30

    def test_counters_start_at_zero_and_add_like_collections_counters(self):
        node = make_node()
        assert node.counters["lookups"] == node.counters.get("ssd_hits") == 0
        node.lookup_batch([synthetic_fingerprint(i % 5) for i in range(20)])
        other = make_node()
        other.lookup(synthetic_fingerprint(99))
        merged = node.counters + other.counters
        assert merged["lookups"] == 21
        assert merged["new_entries"] == 6
        assert node.counters["missing"] == 0


class TestBatchEquivalence:
    """The batched-bloom lookup path must be behaviour-identical to the
    per-fingerprint flow of ``tests/oracles/node_reference.py`` -- verdicts,
    tiers, counters and service times."""

    def test_batch_matches_sequential_with_tiny_cache(self):
        # ram_cache_entries=8 forces LRU evictions *within* a batch, the case
        # where a stale pre-computed bloom verdict would corrupt results.
        import random

        rng = random.Random(42)
        fingerprints = [synthetic_fingerprint(rng.randrange(60)) for _ in range(1500)]
        sequential = make_node(ram_cache_entries=8)
        batched = make_node(ram_cache_entries=8)
        sequential_replies = [node_reference.lookup(sequential, fp) for fp in fingerprints]
        batched_replies = []
        for start in range(0, len(fingerprints), 97):
            batched_replies.extend(batched.lookup_batch(fingerprints[start:start + 97]))
        assert [
            (r.is_duplicate, r.served_from, r.service_time) for r in sequential_replies
        ] == [(r.is_duplicate, r.served_from, r.service_time) for r in batched_replies]
        assert dict(sequential.counters) == dict(batched.counters)
        assert len(sequential) == len(batched)

    def test_batch_matches_sequential_with_collision_heavy_bloom(self):
        # A near-saturated bloom filter makes inserts flip other digests'
        # probe bits constantly, the case where a stale prefetched negative
        # would make the batch path diverge (wrong tier counters / service
        # times) from the sequential path.
        import random

        rng = random.Random(7)
        fingerprints = [synthetic_fingerprint(rng.randrange(400)) for _ in range(1200)]
        sequential = make_node(bloom_expected_items=40)  # tiny: fills immediately
        batched = make_node(bloom_expected_items=40)
        sequential_replies = [node_reference.lookup(sequential, fp) for fp in fingerprints]
        batched_replies = []
        for start in range(0, len(fingerprints), 128):
            batched_replies.extend(batched.lookup_batch(fingerprints[start:start + 128]))
        assert [
            (r.is_duplicate, r.served_from, r.service_time) for r in sequential_replies
        ] == [(r.is_duplicate, r.served_from, r.service_time) for r in batched_replies]
        assert dict(sequential.counters) == dict(batched.counters)
        # The scenario is only meaningful if false positives actually occur.
        assert batched.counters["bloom_false_positives"] > 0

    def test_batch_with_intra_batch_duplicates(self):
        node = make_node()
        fingerprint = synthetic_fingerprint(1)
        replies = node.lookup_batch([fingerprint, fingerprint, fingerprint])
        assert [r.is_duplicate for r in replies] == [False, True, True]
        assert replies[0].served_from is ServedFrom.NEW
        assert replies[1].served_from is ServedFrom.RAM

    def test_empty_batch(self):
        node = make_node()
        assert node.lookup_batch([]) == []
        assert node.counters["lookups"] == 0


class TestImportExport:
    def test_export_import_roundtrip(self):
        source = make_node()
        for index in range(25):
            source.lookup(synthetic_fingerprint(index))
        target = make_node()
        added = target.import_entries(source.export_entries())
        assert added == 25
        assert len(target) == 25
        for index in range(25):
            assert synthetic_fingerprint(index) in target

    def test_import_is_idempotent(self):
        node = make_node()
        node.lookup(synthetic_fingerprint(1))
        entries = node.export_entries()
        assert node.import_entries(entries) == 0

    def test_imported_entries_pass_bloom_filter(self):
        source = make_node()
        source.lookup(synthetic_fingerprint(7))
        target = make_node()
        target.import_entries(source.export_entries())
        reply = target.lookup(synthetic_fingerprint(7))
        assert reply.is_duplicate is True

    def test_remove_entries(self):
        node = make_node()
        held, absent = synthetic_fingerprint(3), synthetic_fingerprint(4)
        node.lookup(held)
        assert node.remove_entries([held.digest, absent.digest]) == 1
        assert node.remove_entries([held.digest]) == 0
        assert held not in node


class TestSimulatedServing:
    def test_serve_batch_requires_simulator(self):
        node = make_node()
        with pytest.raises(RuntimeError):
            node.serve_batch(BatchLookupRequest([synthetic_fingerprint(1)]), lambda _reply: None)

    def test_serve_batch_returns_replies_after_service_time(self, sim):
        node = make_node(sim)
        request = BatchLookupRequest([synthetic_fingerprint(i) for i in range(16)])
        results = []
        node.serve_batch(request, lambda reply: results.append((sim.now, reply)))
        sim.run()
        finish_time, reply = results[0]
        assert len(reply.replies) == 16
        assert reply.node_id == "node-0"
        # At least the per-request plus per-fingerprint CPU time must elapse.
        expected_cpu = node.config.cpu_per_request + 16 * node.config.cpu_per_lookup
        assert finish_time >= expected_cpu

    def test_serve_batches_queue_on_cpu(self, sim):
        node = make_node(sim)
        finish_times = []
        for batch_index in range(3):
            request = BatchLookupRequest(
                [synthetic_fingerprint(batch_index * 100 + i) for i in range(10)]
            )
            node.serve_batch(request, lambda _reply: finish_times.append(sim.now))
        sim.run()
        assert finish_times == sorted(finish_times)
        # With service_concurrency=1, batches must not all finish together.
        assert finish_times[2] > finish_times[0]

    def test_serve_batch_adds_the_batch_time_once_for_every_key(self, sim):
        node = make_node(sim)
        request = BatchLookupRequest([synthetic_fingerprint(i) for i in range(16)])
        finished = []
        node.serve_batch(request, lambda _reply: finished.append(sim.now))
        sim.run()
        # Each key's latency is its share of the batch's arrival-to-reply time.
        assert node.lookup_latency.count == 16
        assert node.lookup_latency.total == pytest.approx(finished[0])

    def test_simulated_and_immediate_agree_on_verdicts(self, sim):
        fingerprints = [synthetic_fingerprint(i % 6) for i in range(24)]
        immediate_node = make_node()
        immediate = [r.is_duplicate for r in immediate_node.lookup_batch(fingerprints)]

        simulated_node = make_node(sim)
        collected = []
        simulated_node.serve_batch(
            BatchLookupRequest(fingerprints),
            lambda reply: collected.extend(r.is_duplicate for r in reply.replies),
        )
        sim.run()
        assert collected == immediate
