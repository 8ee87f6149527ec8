"""Tests for the bloom filter and the LRU cache."""

from __future__ import annotations

import hashlib

import pytest
from oracles.bloom_model import BloomModel

from repro.storage.bloom import BloomFilter, optimal_parameters
from repro.storage.lru import LRUCache


def _digests(start: int, count: int) -> list:
    """Realistic 20-byte SHA-1 fingerprints (the digest fast-path keys)."""
    return [hashlib.sha1(index.to_bytes(8, "big")).digest() for index in range(start, start + count)]


class TestBloomParameters:
    def test_optimal_parameters_reasonable(self):
        bits, hashes = optimal_parameters(1000, 0.01)
        # Classic formula: ~9.6 bits/key and ~7 hashes at 1% FP.
        assert 9 * 1000 <= bits <= 11 * 1000
        assert 6 <= hashes <= 8

    def test_optimal_parameters_validation(self):
        with pytest.raises(ValueError):
            optimal_parameters(0, 0.01)
        with pytest.raises(ValueError):
            optimal_parameters(100, 1.5)

    def test_explicit_sizing_overrides(self):
        bloom = BloomFilter(expected_items=100, num_bits=1024, num_hashes=3)
        assert bloom.num_bits == 1024
        assert bloom.num_hashes == 3


class TestBloomBehaviour:
    def test_no_false_negatives(self):
        bloom = BloomFilter(expected_items=5000, false_positive_rate=0.01)
        keys = _digests(0, 5000)
        for key in keys:
            bloom.add(key)
        assert all(bloom.contains_many(tuple(keys)))

    def test_false_positive_rate_near_target(self):
        """The key-by-key routes (a generator, ``in``) keep the designed FP rate."""
        bloom = BloomFilter(expected_items=10_000, false_positive_rate=0.01)
        bloom.add_many(iter(_digests(0, 10_000)))
        probes = 20_000
        false_positives = sum(1 for key in _digests(2_000_000, probes) if key in bloom)
        rate = false_positives / probes
        assert rate < 0.03  # target 1%, generous bound to avoid flakiness

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(expected_items=100)
        assert _digests(0, 1)[0] not in bloom
        assert bloom.fill_ratio() == 0.0

    def test_clear(self):
        bloom = BloomFilter(expected_items=100)
        key = _digests(0, 1)[0]
        bloom.add(key)
        assert key in bloom
        bloom.clear()
        assert key not in bloom
        assert bloom.count == 0
    def test_a_str_key_is_refused(self):
        """Keys are digest bytes: a ``str`` is refused on every route, never encoded."""
        bloom = BloomFilter(expected_items=10)
        routes = (bloom.add, bloom.contains_one, bloom.__contains__,
                  lambda key: bloom.add_many([key]), lambda key: bloom.contains_many([key]))
        for route in routes:
            with pytest.raises(TypeError):
                route("x" * 20)
        assert bloom.count == 0 and bloom.fill_ratio() == 0.0


class TestBloomDigestFastPath:
    def test_no_false_negatives_with_digest_keys(self):
        bloom = BloomFilter(expected_items=5000)
        keys = _digests(0, 5000)
        bloom.add_many(keys)
        assert all(key in bloom for key in keys)

    def test_fp_rate_near_target_at_capacity(self):
        """Property test: digest fast path keeps the designed FP rate."""
        bloom = BloomFilter(expected_items=10_000, false_positive_rate=0.01)
        bloom.add_many(_digests(0, 10_000))
        probes = _digests(1_000_000, 20_000)
        rate = sum(bloom.contains_many(probes)) / len(probes)
        assert rate < 0.03  # target 1%, generous bound to avoid flakiness

    def test_batch_apis_match_scalar_apis_exactly(self):
        keys = _digests(0, 400)
        probes = keys + _digests(900_000, 300)
        shape = dict(num_bits=8192, num_hashes=5)
        scalar = BloomFilter(expected_items=1000, **shape)
        batched = BloomFilter(expected_items=1000, **shape)
        model = BloomModel(**shape)
        for key in keys:
            scalar.add(key)
        batched.add_many(keys)
        model.add_many(keys)
        assert bytes(scalar._bits) == bytes(batched._bits) == model.bits()
        assert scalar.count == batched.count == model.count
        verdicts = batched.contains_many(probes)
        assert verdicts == [key in scalar for key in probes] == model.contains_many(probes)

    def test_a_key_that_is_not_a_digest_raises(self):
        """Every route refuses a 19-byte key, and the batch routes set no bit first."""
        bloom = BloomFilter(expected_items=100)
        keys = _digests(0, 5)
        keys[3] = keys[3][:19]
        for batch in (keys, tuple(keys)):
            with pytest.raises(ValueError):
                bloom.add_many(batch)
            with pytest.raises(ValueError):
                bloom.contains_many(batch)
        assert bloom.fill_ratio() == 0.0 and bloom.count == 0
        with pytest.raises(ValueError):
            bloom.add(keys[3])
        with pytest.raises(ValueError):
            bloom.contains_one(keys[3])
        # Wrong lengths that sum to a multiple of 20 are refused too.
        with pytest.raises(ValueError):
            bloom.add_many([b"a" * 10, b"b" * 30])

    def test_contains_agrees_with_indexes_introspection(self):
        bloom = BloomFilter(expected_items=500)
        model = BloomModel(bloom.num_bits, bloom.num_hashes)
        keys = _digests(0, 200)
        bloom.add_many(keys)
        bits = bloom.raw_bits()
        for key in keys + _digests(10_000, 50):
            manual = all(bits[index >> 3] & (1 << (index & 7)) for index in model.indexes(key))
            assert manual == (key in bloom)

    def test_fill_ratio_matches_per_byte_popcount(self):
        bloom = BloomFilter(expected_items=500)
        bloom.add_many(_digests(0, 400))
        reference = sum(bin(byte).count("1") for byte in bloom._bits) / bloom.num_bits
        assert bloom.fill_ratio() == pytest.approx(reference)
        assert bloom.fill_ratio() > 0

    def test_add_many_accepts_generators(self):
        bloom = BloomFilter(expected_items=100)
        bloom.add_many(key for key in _digests(0, 50))
        assert bloom.count == 50

    def test_generic_fallback_for_large_hash_counts(self):
        # num_hashes above the unroll cap gets the walk as a loop, per key
        # only; batch and scalar paths must still agree bit-for-bit.
        scalar = BloomFilter(expected_items=100, num_bits=65536, num_hashes=20)
        batched = BloomFilter(expected_items=100, num_bits=65536, num_hashes=20)
        assert scalar._add_words is None
        keys = _digests(0, 200)
        for key in keys:
            scalar.add(key)
        batched.add_many(keys)
        assert scalar._bits == batched._bits
        probes = keys + _digests(7000, 100)
        assert batched.contains_many(probes) == [key in scalar for key in probes]


class TestLRUCache:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_get_put_basic(self):
        cache = LRUCache(4)
        cache.put(b"a", 1)
        assert cache.get(b"a") == 1
        assert cache.get(b"missing") is None
        assert cache.get(b"missing", "default") == "default"

    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(3)
        for key in (b"a", b"b", b"c"):
            cache.put(key)
        cache.get(b"a")          # refresh a
        cache.put(b"d")          # evicts b (the LRU)
        assert b"b" not in cache
        assert all(key in cache for key in (b"a", b"c", b"d"))

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put(b"a")
        cache.put(b"b")
        cache.put(b"a")          # refresh
        cache.put(b"c")          # evicts b
        assert b"a" in cache and b"b" not in cache

    def test_put_returns_evicted_entry(self):
        cache = LRUCache(1)
        assert cache.put(b"a", 1) is None
        assert cache.put(b"b", 2) == (b"a", 1)

    def test_evictions_returned_in_lru_order(self):
        cache = LRUCache(2)
        evicted = []
        for key in (b"a", b"b", b"c", b"d"):
            victim = cache.lru_key() if cache.is_full else None
            outcome = cache.put(key)
            assert outcome == (None if victim is None else (victim, True))
            evicted.append(victim)
        assert evicted == [None, None, b"a", b"b"]
        assert cache.evictions == 2
        assert list(cache) == [b"c", b"d"]

    def test_hit_miss_counters_and_ratio(self):
        cache = LRUCache(2)
        cache.put(b"a")
        cache.get(b"a")
        cache.get(b"a")
        cache.get(b"x")
        assert cache.hits == 2 and cache.misses == 1
        assert cache.hit_ratio() == pytest.approx(2 / 3)

    def test_contains_and_peek_do_not_touch_counters(self):
        cache = LRUCache(2)
        cache.put(b"a", 1)
        assert b"a" in cache
        assert cache.peek(b"a") == 1
        assert cache.hits == 0 and cache.misses == 0

    def test_lru_and_mru_keys(self):
        cache = LRUCache(3)
        for key in (b"a", b"b", b"c"):
            cache.put(key)
        assert cache.lru_key() == b"a"
        assert cache.mru_key() == b"c"
        cache.get(b"a")
        assert cache.lru_key() == b"b"
        assert cache.mru_key() == b"a"

    def test_remove_and_clear(self):
        cache = LRUCache(3)
        cache.put(b"a")
        assert cache.remove(b"a") is True
        assert cache.remove(b"a") is False
        cache.put(b"b")
        cache.clear()
        assert len(cache) == 0

    def test_iteration_order_lru_to_mru(self):
        cache = LRUCache(3)
        for key in (b"a", b"b", b"c"):
            cache.put(key)
        cache.get(b"a")
        assert list(cache) == [b"b", b"c", b"a"]

    def test_never_exceeds_capacity(self):
        cache = LRUCache(10)
        for index in range(1000):
            cache.put(index)
            assert len(cache) <= 10
        assert cache.is_full

    def test_stats_snapshot(self):
        cache = LRUCache(2)
        cache.put(b"a")
        cache.get(b"a")
        stats = cache.stats()
        assert stats["size"] == 1 and stats["hits"] == 1 and stats["capacity"] == 2


class TestSingleKeyKernels:
    """contains_one / add_one vs. the canonical single-key methods."""

    def test_contains_one_agrees_with_contains(self):
        bloom = BloomFilter(expected_items=500)
        present = [bytes([i]) * 20 for i in range(60)]
        absent = [bytes([200 - i]) * 20 for i in range(60)]
        for key in present:
            bloom.add(key)
        for key in present + absent:
            assert bloom.contains_one(key) == (key in bloom)

    def test_add_one_plus_count_matches_add(self):
        reference = BloomFilter(expected_items=500)
        fast = BloomFilter(expected_items=500)
        keys = [bytes([i, i + 1]) * 10 for i in range(50)]
        for key in keys:
            reference.add(key)
            fast.add_one(key)
        fast.count_inserts(len(keys))
        assert fast._bits == reference._bits
        assert fast._count == reference._count

    def test_every_probe_shape_refuses_a_key_that_is_not_a_digest(self):
        """Unrolled walks and looped ones (more than 16 hashes) alike."""
        key = _digests(0, 1)[0]
        for num_hashes in (1, 7, 16, 17, 20):
            bloom = BloomFilter(num_bits=4096, num_hashes=num_hashes)
            for bad in (key[:19], key + b"!"):
                for route in (bloom.add, bloom.add_one, bloom.contains_one):
                    with pytest.raises(ValueError):
                        route(bad)
            assert bloom.fill_ratio() == 0.0
            bloom.add(key)
            assert bloom.contains_one(key) and key in bloom

    def test_kernels_survive_clear(self):
        bloom = BloomFilter(expected_items=300)
        key = b"x" * 20
        bloom.add(key)
        assert bloom.contains_one(key)
        bloom.clear()
        assert not bloom.contains_one(key)  # bound bits were zeroed in place
        bloom.add(key)
        assert bloom.contains_one(key)


class TestLRUHotPaths:
    def test_put_new_matches_put_for_absent_keys(self):
        """The node kernel's inlined known-absent insert (against ``data``,
        counters settled per batch) vs ``put``: same stats, same recency
        order, same victims in the same order, one destage per eviction."""
        from repro.core.config import HashNodeConfig
        from repro.core.digest_batch import DigestBatch
        from repro.core.hash_node import HybridHashNode

        node = HybridHashNode(
            "lru", config=HashNodeConfig(ram_cache_entries=2, bloom_expected_items=512)
        )
        reference = LRUCache(capacity=2)
        a, b, c, d, e = (bytes([i]) * 20 for i in range(5))
        # Refreshes (a, d) and an evicted key coming back from the SSD tier
        # (b) make the final recency order depend on every victim choice.
        keys = [a, b, a, c, d, b, d, e]
        node.serve_bucket_verdicts(DigestBatch.from_blob(b"".join(keys), 1))
        evicted = []
        for key in keys:
            if reference.get(key) is None:
                victim = reference.lru_key() if reference.is_full else None
                assert reference.put(key, True) == (None if victim is None else (victim, True))
                evicted.append(victim)
        assert evicted == [None, None, b, a, c, b]
        assert node.cache.stats() == reference.stats()
        assert list(node.cache) == list(reference) == [d, e]
        assert node.cache.lru_key() == reference.lru_key()
        assert node.snapshot().destages == reference.evictions == 4

    def test_data_exposes_backing_dict(self):
        cache = LRUCache(capacity=3)
        cache.put("a", 1)
        assert "a" in cache.data
        assert cache.data is cache.data  # stable object
