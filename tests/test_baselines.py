"""Tests for the centralized baseline indexes."""

from __future__ import annotations

import pytest

from repro.baselines.chunkstash import ChunkStashIndex
from repro.baselines.ddfs import DDFSIndex
from repro.baselines.disk_index import DiskIndex
from repro.baselines.single_node import SingleNodeHashServer
from repro.core.config import HashNodeConfig
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.dedup.index import InMemoryChunkIndex


ALL_BASELINES = [
    lambda: DiskIndex(cache_entries=64),
    lambda: DDFSIndex(bloom_expected_items=10_000, cache_containers=8, container_fingerprints=64),
    lambda: ChunkStashIndex(cache_entries=64),
    lambda: SingleNodeHashServer(HashNodeConfig(ram_cache_entries=64, bloom_expected_items=10_000)),
]


@pytest.mark.parametrize("factory", ALL_BASELINES)
class TestChunkIndexContract:
    """Every baseline must behave like a correct chunk index."""

    def test_first_unique_then_duplicate(self, factory):
        index = factory()
        fingerprint = synthetic_fingerprint(1)
        assert index.lookup(fingerprint).is_duplicate is False
        assert index.lookup(fingerprint).is_duplicate is True
        assert len(index) == 1

    def test_contains_is_readonly(self, factory):
        index = factory()
        fingerprint = synthetic_fingerprint(2)
        assert fingerprint not in index
        assert len(index) == 0
        index.lookup(fingerprint)
        assert fingerprint in index

    def test_verdicts_match_oracle(self, factory):
        index = factory()
        oracle = InMemoryChunkIndex()
        fingerprints = [synthetic_fingerprint(i % 40) for i in range(300)]
        for fingerprint in fingerprints:
            assert index.lookup(fingerprint).is_duplicate == oracle.lookup(fingerprint).is_duplicate
        assert len(index) == len(oracle)

    def test_latency_is_positive(self, factory):
        index = factory()
        result = index.lookup(synthetic_fingerprint(3))
        assert result.latency > 0.0


class TestDiskIndex:
    def test_disk_misses_pay_seek_latency(self):
        index = DiskIndex(cache_entries=4)
        target = synthetic_fingerprint(0)
        index.lookup(target)
        # Evict the target from the tiny cache.
        for i in range(1, 50):
            index.lookup(synthetic_fingerprint(i))
        result = index.lookup(target)
        assert result.is_duplicate is True
        assert result.latency > index.device.spec.seek_latency

    def test_cache_hit_avoids_disk(self):
        index = DiskIndex(cache_entries=64)
        target = synthetic_fingerprint(0)
        index.lookup(target)
        hit = index.lookup(target)
        assert hit.latency < index.device.spec.seek_latency


class TestDDFSIndex:
    def test_summary_vector_short_circuits_new_chunks(self):
        index = DDFSIndex(bloom_expected_items=10_000)
        index.lookup(synthetic_fingerprint(1))
        assert index.counters["summary_negative"] == 1

    def test_locality_cache_serves_neighbours_without_disk(self):
        index = DDFSIndex(
            bloom_expected_items=10_000, container_fingerprints=32, cache_containers=4
        )
        first_pass = [synthetic_fingerprint(i) for i in range(32)]
        for fingerprint in first_pass:
            index.lookup(fingerprint)
        # Second pass: the first lookup misses the cache and prefetches the
        # container; the rest should be cache hits.
        for fingerprint in first_pass:
            index.lookup(fingerprint)
        assert index.counters["cache_hits"] >= 31
        assert index.cache_hit_ratio() > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            DDFSIndex(container_fingerprints=0)


class TestChunkStash:
    def test_negative_lookup_needs_no_flash_read(self):
        index = ChunkStashIndex()
        index.lookup(synthetic_fingerprint(1))
        assert index.counters["flash_reads"] == 0

    def test_duplicate_after_cache_eviction_costs_one_flash_read(self):
        index = ChunkStashIndex(cache_entries=4)
        target = synthetic_fingerprint(0)
        index.lookup(target)
        for i in range(1, 20):
            index.lookup(synthetic_fingerprint(i))
        before = index.counters["flash_reads"]
        result = index.lookup(target)
        assert result.is_duplicate is True
        assert index.counters["flash_reads"] == before + 1

    def test_flash_writes_are_amortised(self):
        index = ChunkStashIndex(entry_size=64, page_size=4096)
        for i in range(640):
            index.lookup(synthetic_fingerprint(i))
        # 640 new entries at 64 per page -> about 10 page writes.
        assert 8 <= index.counters["flash_writes"] <= 12

    def test_ram_footprint_is_compact(self):
        index = ChunkStashIndex()
        for i in range(1000):
            index.lookup(synthetic_fingerprint(i))
        assert index.ram_bytes() == 10_000


class TestSingleNodeServer:
    def test_is_one_hybrid_node(self):
        server = SingleNodeHashServer(
            HashNodeConfig(ram_cache_entries=128, bloom_expected_items=10_000)
        )
        for i in range(100):
            server.lookup(synthetic_fingerprint(i % 25))
        snapshot = server.snapshot()
        assert snapshot.entries == 25
        assert snapshot.lookups == 100
        assert server.mean_latency() > 0.0

    def test_mean_latency_is_the_mean_of_the_lookups_served(self):
        server = SingleNodeHashServer(
            HashNodeConfig(ram_cache_entries=16, bloom_expected_items=10_000)
        )
        assert server.mean_latency() == 0.0
        latencies = [server.lookup(synthetic_fingerprint(i % 40)).latency for i in range(120)]
        assert server.mean_latency() == pytest.approx(sum(latencies) / len(latencies))

    def test_faster_than_disk_index_on_redundant_workload(self):
        fingerprints = [synthetic_fingerprint(i % 50) for i in range(500)]
        hybrid = SingleNodeHashServer(
            HashNodeConfig(ram_cache_entries=1024, bloom_expected_items=10_000)
        )
        disk = DiskIndex(cache_entries=16)
        hybrid_total = sum(hybrid.lookup(fp).latency for fp in fingerprints)
        disk_total = sum(disk.lookup(fp).latency for fp in fingerprints)
        assert hybrid_total * 10 < disk_total
