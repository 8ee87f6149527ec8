"""Differential suite for the vectorized data plane (PR 9).

Every packed/fused fast path must be byte-identical to the scalar oracle
it replaced, which stays in the tree precisely so these tests can compare
against it:

* bloom ``add_many``/``contains_many`` over packed batch hash words vs
  ``add_many_scalar``/``contains_many_scalar``;
* cuckoo ``get_many``/``put_many``/``contains_many`` vs their scalar twins,
  on both the list backing and the packed shared-memory backing;
* the node's fused batch kernel (``serve_bucket_batch`` /
  ``serve_digest_batch``) vs the scalar ``serve_bucket`` loop -- replies,
  float service times, counters, store stats, and bloom bits;
* shared-memory segment lifecycle (create/attach/close/unlink, geometry
  validation, leaked-segment cleanup);
* the packed trace cache vs running the generator directly.

Plus the PR's three named satellite regression tests (fill_ratio big-int
materialization, restore_payload repeated growth, union double-counting).

PR 10 adds the columnar (numpy) backend on top: every ``*_np`` kernel and
the columnar fused node family are held to the same standard -- verdicts,
counters, and bit state identical to the scalar oracles -- and the forced
no-numpy leg (``REPRO_FORCE_NO_NUMPY=1``, subprocess) pins the fallback.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HashNodeConfig
from repro.core.digest_batch import DigestBatch
from repro.core.hash_node import HybridHashNode
from repro.dedup.fingerprint import Fingerprint
from repro.storage import npy as npy_backend
from repro.storage.bloom import BloomFilter
from repro.storage.cuckoo import CuckooHashTable
from repro.storage.packing import digest_hash_words, digest_hash_words_np
from repro.storage.shm import (
    SharedBuffer,
    shared_memory_available,
    unlink_segment,
)
from repro.workloads import trace_cache
from repro.workloads.profiles import TABLE_I_PROFILES
from repro.workloads.traces import TraceGenerator

FAST = settings(max_examples=40, deadline=None)
SLOWER = settings(max_examples=15, deadline=None)

digests = st.binary(min_size=20, max_size=20)
digest_lists = st.lists(digests, min_size=1, max_size=80)
geometries = st.tuples(st.integers(64, 4096), st.integers(1, 8))
# Shapes past the unroll bound must fall back to the scalar loop and still
# agree with it.
wide_geometries = st.tuples(st.integers(64, 1024), st.integers(17, 20))

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)
needs_numpy = pytest.mark.skipif(
    not npy_backend.HAVE_NUMPY, reason="numpy unavailable (install the 'perf' extra)"
)


def _with_duplicates(keys):
    """Guarantee in-batch duplicates (the kernels must handle them)."""
    return keys + keys[: max(1, len(keys) // 2)]


# --------------------------------------------------------------------------- bloom
class TestBloomPackedDifferential:
    @FAST
    @given(geometries, digest_lists)
    def test_add_and_contains_match_scalar_oracle(self, geometry, keys):
        num_bits, num_hashes = geometry
        keys = _with_duplicates(keys)
        packed = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        scalar = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        packed.add_many(keys)
        scalar.add_many_scalar(keys)
        assert bytes(packed.raw_bits()) == bytes(scalar.raw_bits())
        assert packed.count == scalar.count
        probes = keys + [os.urandom(20) for _ in range(16)]
        assert packed.contains_many(probes) == scalar.contains_many_scalar(probes)

    @SLOWER
    @given(wide_geometries, digest_lists)
    def test_wide_shapes_fall_back_and_agree(self, geometry, keys):
        num_bits, num_hashes = geometry
        packed = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        scalar = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        packed.add_many(keys)
        scalar.add_many_scalar(keys)
        assert bytes(packed.raw_bits()) == bytes(scalar.raw_bits())
        assert packed.contains_many(keys) == scalar.contains_many_scalar(keys)

    @FAST
    @given(digest_lists)
    def test_digest_batch_and_blob_paths_match_lists(self, keys):
        from_list = BloomFilter(num_bits=2048, num_hashes=5)
        from_batch = BloomFilter(num_bits=2048, num_hashes=5)
        batch = DigestBatch.from_blob(b"".join(keys), 4096)
        from_list.add_many(keys)
        from_batch.add_many(batch)
        assert bytes(from_list.raw_bits()) == bytes(from_batch.raw_bits())
        assert from_list.contains_many(keys) == from_batch.contains_many(batch)

    @FAST
    @given(digest_lists, digest_lists)
    def test_reuse_after_clear_matches_fresh(self, first, second):
        reused = BloomFilter(num_bits=1024, num_hashes=4)
        reused.add_many(first)
        reused.clear()
        reused.add_many(second)
        fresh = BloomFilter(num_bits=1024, num_hashes=4)
        fresh.add_many(second)
        assert bytes(reused.raw_bits()) == bytes(fresh.raw_bits())
        assert reused.count == fresh.count

    @FAST
    @given(digest_lists)
    def test_fill_ratio_matches_per_bit_reference(self, keys):
        bloom = BloomFilter(num_bits=1024, num_hashes=4)
        bloom.add_many(keys)
        reference = sum(bin(byte).count("1") for byte in bytes(bloom.raw_bits()))
        assert bloom.fill_ratio() == reference / bloom.num_bits


class TestBloomSatelliteRegressions:
    def test_fill_ratio_does_not_materialize_bigint(self):
        """Satellite (a): fill_ratio popcounts in bounded chunks.

        The pre-fix implementation converted the whole bit vector into one
        Python big-int per call; for this 2 MiB filter that is a >= 2 MiB
        allocation, while the chunked popcount stays under a few hundred
        KiB.  tracemalloc makes the difference deterministic.
        """
        bloom = BloomFilter(num_bits=1 << 24, num_hashes=4)  # 2 MiB of bits
        bloom.add_many([os.urandom(20) for _ in range(256)])
        bloom.fill_ratio()  # warm any lazy state outside the measurement
        tracemalloc.start()
        try:
            bloom.fill_ratio()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"fill_ratio allocated {peak} bytes peak"

    def test_fill_ratio_exact_pinned_ratios(self):
        bloom = BloomFilter(num_bits=256, num_hashes=2)
        assert bloom.fill_ratio() == 0.0
        bloom.raw_bits()[0] = 0b1011_0001  # 4 bits
        bloom.raw_bits()[31] = 0xFF  # 8 bits
        assert bloom.fill_ratio() == 12 / 256
        bloom.raw_bits()[:] = bytes([0xFF]) * 32
        assert bloom.fill_ratio() == 1.0

    def test_union_does_not_double_count_overlap(self):
        """Satellite (c): two filters holding the same 500 keys no longer
        merge to ``count == 1000``."""
        keys = [os.urandom(20) for _ in range(500)]
        left = BloomFilter(num_bits=1 << 16, num_hashes=5)
        right = BloomFilter(num_bits=1 << 16, num_hashes=5)
        left.add_many(keys)
        right.add_many(keys)
        merged = left.union(right)
        assert merged.count < 1000  # pre-fix: exactly 1000
        assert 500 <= merged.count  # clamp floor: max of the inputs

    def test_union_count_exact_when_one_side_empty(self):
        keys = [os.urandom(20) for _ in range(500)]
        filled = BloomFilter(num_bits=1 << 16, num_hashes=5)
        filled.add_many(keys)
        empty = BloomFilter(num_bits=1 << 16, num_hashes=5)
        assert filled.union(empty).count == 500
        assert empty.union(filled).count == 500

    @FAST
    @given(digest_lists, digest_lists)
    def test_union_bits_are_exact_or(self, left_keys, right_keys):
        left = BloomFilter(num_bits=1000, num_hashes=3)  # non-multiple-of-8 tail
        right = BloomFilter(num_bits=1000, num_hashes=3)
        left.add_many(left_keys)
        right.add_many(right_keys)
        merged = left.union(right)
        reference = bytes(
            a | b for a, b in zip(bytes(left.raw_bits()), bytes(right.raw_bits()))
        )
        assert bytes(merged.raw_bits()) == reference
        assert all(key in merged for key in left_keys + right_keys)


# -------------------------------------------------------------------------- cuckoo
values = st.integers(0, 2**64 - 1)
kv_lists = st.lists(st.tuples(digests, values), min_size=1, max_size=60)


class TestCuckooVectorizedDifferential:
    @FAST
    @given(kv_lists, digest_lists)
    def test_vectorized_ops_match_scalar_oracle(self, items, extra_probes):
        items = _with_duplicates(items)  # duplicate keys in one batch
        fast = CuckooHashTable(initial_buckets=8, slots_per_bucket=2)
        oracle = CuckooHashTable(initial_buckets=8, slots_per_bucket=2)
        fast.put_many(items)
        oracle.put_many_scalar(items)
        assert len(fast) == len(oracle)
        assert dict(fast.items()) == dict(oracle.items())
        probes = [key for key, _ in items] + extra_probes
        assert fast.get_many(probes, default=-1) == oracle.get_many_scalar(probes, default=-1)
        assert fast.contains_many(probes) == oracle.contains_many_scalar(probes)

    @needs_shm
    @FAST
    @given(kv_lists)
    def test_packed_backing_matches_list_backing(self, items):
        packed = CuckooHashTable(initial_buckets=8, slots_per_bucket=2, shared=True)
        try:
            plain = CuckooHashTable(initial_buckets=8, slots_per_bucket=2)
            packed.put_many(items)
            plain.put_many(items)
            assert dict(packed.items()) == dict(plain.items())
            probes = [key for key, _ in items] + [os.urandom(20) for _ in range(8)]
            assert packed.get_many(probes) == plain.get_many(probes)
            assert packed.contains_many(probes) == plain.contains_many(probes)
        finally:
            packed.unlink_shared()

    def test_packed_rejects_non_digest_entries(self):
        table = CuckooHashTable(initial_buckets=8, shared=True)
        try:
            with pytest.raises(TypeError):
                table.put(b"short", 1)
            with pytest.raises(TypeError):
                table.put(os.urandom(20), -1)
            with pytest.raises(TypeError):
                table.put(os.urandom(20), True)
        finally:
            table.unlink_shared()

    def test_restore_payload_presizes_single_resize(self):
        """Satellite (b): snapshot restore into a cold table grows at most
        once instead of replaying every doubling through ``put``."""
        source = CuckooHashTable(initial_buckets=8, slots_per_bucket=2)
        entries = {os.urandom(20): index for index in range(3000)}
        source.put_many(list(entries.items()))
        payload = source.snapshot_payload()

        cold = CuckooHashTable(initial_buckets=8, slots_per_bucket=2)
        restored = cold.restore_payload(payload)
        assert restored == len(entries)
        assert cold.resizes <= 1  # pre-fix: one resize per doubling (~8)
        assert dict(cold.items()) == entries

    @needs_shm
    def test_restore_payload_presizes_packed_backing(self):
        source = CuckooHashTable(initial_buckets=8, slots_per_bucket=2)
        entries = {os.urandom(20): index for index in range(1500)}
        source.put_many(list(entries.items()))
        payload = source.snapshot_payload()

        cold = CuckooHashTable(initial_buckets=8, slots_per_bucket=2, shared=True)
        try:
            assert cold.restore_payload(payload) == len(entries)
            assert cold.resizes <= 1
            assert dict(cold.items()) == entries
        finally:
            cold.unlink_shared()


# ------------------------------------------------------------- shared-memory lifecycle
@needs_shm
class TestSharedMemoryLifecycle:
    def test_bloom_attach_sees_writer_bits(self):
        name = f"repro-test-bloom-{os.getpid()}"
        writer = BloomFilter(num_bits=4096, num_hashes=4, shared=True, shared_name=name)
        assert writer.shared_segment_name == name
        try:
            keys = [os.urandom(20) for _ in range(64)]
            writer.add_many(keys)
            reader = BloomFilter(num_bits=4096, num_hashes=4, shared_name=name)
            try:
                assert reader.contains_many(keys) == [True] * len(keys)
                assert bytes(reader.raw_bits()) == bytes(writer.raw_bits())
            finally:
                reader.close_shared()
        finally:
            writer.unlink_shared()
        with pytest.raises(FileNotFoundError):
            BloomFilter(num_bits=4096, num_hashes=4, shared_name=name)

    def test_bloom_geometry_mismatch_raises(self):
        name = f"repro-test-geom-{os.getpid()}"
        writer = BloomFilter(num_bits=4096, num_hashes=4, shared=True, shared_name=name)
        try:
            with pytest.raises(ValueError, match="bits=4096"):
                BloomFilter(num_bits=2048, num_hashes=4, shared_name=name)
        finally:
            writer.unlink_shared()

    def test_cuckoo_attach_reads_writer_entries(self):
        name = f"repro-test-cuckoo-{os.getpid()}"
        writer = CuckooHashTable(initial_buckets=64, shared=True, shared_name=name)
        try:
            entries = {os.urandom(20): index for index in range(40)}
            writer.put_many(list(entries.items()))
            reader = CuckooHashTable(
                initial_buckets=64, shared_name=writer.shared_segment_name
            )
            try:
                assert len(reader) == len(entries)
                keys = list(entries)
                assert reader.get_many(keys) == [entries[key] for key in keys]
            finally:
                reader.close_shared()
        finally:
            writer.unlink_shared()

    def test_leaked_segment_cleanup(self):
        name = f"repro-test-leak-{os.getpid()}"
        leaked = SharedBuffer.create(128, name=name)
        assert leaked.name == name
        leaked.close()  # detached but never unlinked: the "crashed owner" case
        assert unlink_segment(name) is True
        assert unlink_segment(name) is False  # idempotent on missing segments

    def test_kill_detaches_shared_bloom_and_keeps_segment(self):
        name = f"repro-test-kill-{os.getpid()}"
        config = HashNodeConfig(bloom_expected_items=512, ssd_buckets=16)
        bloom = BloomFilter(
            expected_items=config.bloom_expected_items,
            false_positive_rate=config.bloom_false_positive_rate,
            shared=True,
            shared_name=name,
        )
        node = HybridHashNode("shm-node", config=config, bloom=bloom)
        try:
            node.lookup(Fingerprint(digest=os.urandom(20), chunk_size=4096))
            node.kill()
            assert node.bloom.shared_segment_name is None  # private replacement
        finally:
            assert unlink_segment(name) is True  # kill detached, not unlinked


# ------------------------------------------------------------------- fused node kernel
def _twin_nodes():
    config = HashNodeConfig(
        ram_cache_entries=32,
        bloom_expected_items=256,
        bloom_false_positive_rate=0.05,
        ssd_buckets=16,
        ssd_write_buffer_pages=2,
    )
    return HybridHashNode("twin", config=config), HybridHashNode("twin", config=config)


def _reply_tuple(reply):
    return (
        reply.fingerprint.digest,
        reply.is_duplicate,
        reply.served_from,
        reply.node_id,
        reply.service_time,
    )


batch_lists = st.lists(
    st.lists(st.tuples(digests, st.integers(1, 1 << 20)), min_size=1, max_size=40),
    min_size=1,
    max_size=4,
)


class TestFusedNodeKernelDifferential:
    @SLOWER
    @given(batch_lists)
    def test_serve_bucket_batch_matches_scalar_loop(self, batches):
        scalar, fused = _twin_nodes()
        for pairs in batches:
            pairs = _with_duplicates(pairs)
            fingerprints = [
                Fingerprint(digest=digest, chunk_size=size) for digest, size in pairs
            ]
            scalar_replies, scalar_new = scalar.serve_bucket(fingerprints)
            fused_replies, fused_new = fused.serve_bucket_batch(
                DigestBatch.from_fingerprints(fingerprints)
            )
            assert scalar_new == fused_new
            assert list(map(_reply_tuple, scalar_replies)) == list(
                map(_reply_tuple, fused_replies)
            )
        assert scalar.counters.as_dict() == fused.counters.as_dict()
        assert scalar.store.stats() == fused.store.stats()
        assert bytes(scalar.bloom.raw_bits()) == bytes(fused.bloom.raw_bits())
        assert scalar.bloom.count == fused.bloom.count
        assert list(scalar.cache.data) == list(fused.cache.data)
        assert (scalar.cache.hits, scalar.cache.misses) == (
            fused.cache.hits,
            fused.cache.misses,
        )

    @SLOWER
    @given(batch_lists)
    def test_serve_digest_batch_matches_scalar_loop(self, batches):
        scalar, fused = _twin_nodes()
        for pairs in batches:
            fingerprints = [
                Fingerprint(digest=digest, chunk_size=size) for digest, size in pairs
            ]
            scalar_replies, scalar_new = scalar.serve_bucket(fingerprints)
            verdicts, fused_new = fused.serve_digest_batch(
                DigestBatch.from_blob(
                    b"".join(digest for digest, _ in pairs),
                    [size for _, size in pairs],
                )
            )
            assert scalar_new == fused_new
            assert [reply.is_duplicate for reply in scalar_replies] == verdicts
        assert scalar.counters.as_dict() == fused.counters.as_dict()
        assert scalar.store.stats() == fused.store.stats()
        assert sorted(scalar.store.items()) == sorted(fused.store.items())

    def test_scalar_chunk_size_blob_matches(self):
        scalar, fused = _twin_nodes()
        rng = random.Random(7)
        digest_pool = [rng.randbytes(20) for _ in range(120)]
        for _ in range(6):
            chosen = [rng.choice(digest_pool) for _ in range(50)]
            fingerprints = [Fingerprint(digest=d, chunk_size=4096) for d in chosen]
            scalar_replies, scalar_new = scalar.serve_bucket(fingerprints)
            verdicts, fused_new = fused.serve_digest_batch(
                DigestBatch.from_blob(b"".join(chosen), 4096)
            )
            assert scalar_new == fused_new
            assert [reply.is_duplicate for reply in scalar_replies] == verdicts
        assert scalar.counters.as_dict() == fused.counters.as_dict()

    def test_non_digest_bloom_falls_back_to_scalar_path(self):
        config = HashNodeConfig(bloom_expected_items=256, ssd_buckets=16)
        node = HybridHashNode("fallback", config=config)
        node.bloom = BloomFilter(num_bits=2048, num_hashes=3, digest_keys=False)
        fingerprints = [
            Fingerprint(digest=os.urandom(20), chunk_size=4096) for _ in range(20)
        ]
        replies, new_entries = node.serve_bucket_batch(
            DigestBatch.from_fingerprints(fingerprints)
        )
        assert new_entries == 20
        assert all(not reply.is_duplicate for reply in replies)
        verdicts, _ = node.serve_digest_batch(
            DigestBatch.from_blob(
                b"".join(fp.digest for fp in fingerprints), 4096
            )
        )
        assert verdicts == [True] * 20


# --------------------------------------------------------------------- trace cache
class TestTraceCache:
    def setup_method(self):
        trace_cache.clear_memo()

    def test_generate_trace_matches_generator(self):
        profile = TABLE_I_PROFILES[0].scaled(0.001)
        reference = list(
            TraceGenerator(profile, seed=3, identity_space=profile.name).generate()
        )
        for _ in range(2):  # second call comes from the packed memo
            cached = trace_cache.generate_trace(profile, seed=3, identity_space=profile.name)
            assert [(f.digest, f.chunk_size) for f in cached] == [
                (f.digest, f.chunk_size) for f in reference
            ]

    def test_memo_returns_fresh_lists(self):
        profile = TABLE_I_PROFILES[1].scaled(0.001)
        first = trace_cache.generate_trace(profile, seed=1)
        second = trace_cache.generate_trace(profile, seed=1)
        assert first is not second
        first[0] = None  # a caller mangling its list must not poison the cache
        third = trace_cache.generate_trace(profile, seed=1)
        assert third[0] is not None and third[0].digest == second[0].digest

    @needs_shm
    def test_shared_publish_attach_and_cleanup(self):
        profile = TABLE_I_PROFILES[0].scaled(0.001)
        prefix = f"repro-test-trace-{os.getpid()}"
        published = trace_cache.generate_trace(profile, seed=9, shared_prefix=prefix)
        trace_cache.clear_memo()  # force the next call through the segment
        attached = trace_cache.generate_trace(profile, seed=9, shared_prefix=prefix)
        assert [(f.digest, f.chunk_size) for f in published] == [
            (f.digest, f.chunk_size) for f in attached
        ]
        assert trace_cache.cleanup_shared_traces(prefix) == 1
        assert trace_cache.cleanup_shared_traces(prefix) == 0


# -------------------------------------------------------- numpy columnar backend
@needs_numpy
class TestNumpyHashWordsDifferential:
    @FAST
    @given(digest_lists)
    def test_hash_words_np_match_struct_unpack(self, keys):
        blob = b"".join(keys)
        columnar = digest_hash_words_np(blob, len(keys))
        scalar = digest_hash_words(blob, len(keys))
        assert columnar.shape == (len(keys), 2)
        flat = [int(word) for row in columnar for word in row]
        assert flat == list(scalar)

    @FAST
    @given(digest_lists)
    def test_digest_batch_caches_and_matches(self, keys):
        batch = DigestBatch.from_blob(b"".join(keys), 4096)
        first = batch.hash_words_np()
        assert batch.hash_words_np() is first  # memoized per batch
        scalar = digest_hash_words(batch.packed(), len(keys))
        assert [int(w) for row in first for w in row] == list(scalar)


@needs_numpy
class TestNumpyBloomDifferential:
    @FAST
    @given(geometries, digest_lists)
    def test_add_and_contains_np_match_scalar_oracle(self, geometry, keys):
        num_bits, num_hashes = geometry
        keys = _with_duplicates(keys)
        columnar = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        oracle = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        columnar.add_many_np(keys)
        oracle.add_many_scalar(keys)
        assert bytes(columnar.raw_bits()) == bytes(oracle.raw_bits())
        assert columnar.count == oracle.count
        probes = keys + [os.urandom(20) for _ in range(16)]
        assert columnar.contains_many_np(probes) == oracle.contains_many_scalar(probes)

    @FAST
    @given(digest_lists)
    def test_digest_batch_path_matches_list_path(self, keys):
        batch = DigestBatch.from_blob(b"".join(keys), 4096)
        from_batch = BloomFilter(num_bits=2048, num_hashes=5)
        from_list = BloomFilter(num_bits=2048, num_hashes=5)
        from_batch.add_many_np(batch)
        from_list.add_many_scalar(keys)
        assert bytes(from_batch.raw_bits()) == bytes(from_list.raw_bits())
        assert from_batch.contains_many_np(batch) == from_list.contains_many_scalar(keys)

    @needs_shm
    @SLOWER
    @given(digest_lists)
    def test_shm_backed_bits_match_scalar(self, keys):
        # The scatter targets the shared segment through a zero-copy numpy
        # view; the private scalar twin must end with the same bytes.
        shared = BloomFilter(num_bits=4096, num_hashes=4, shared=True)
        try:
            oracle = BloomFilter(num_bits=4096, num_hashes=4)
            shared.add_many_np(keys)
            oracle.add_many_scalar(keys)
            assert bytes(shared.raw_bits()) == bytes(oracle.raw_bits())
            probes = keys + [os.urandom(20) for _ in range(8)]
            assert shared.contains_many_np(probes) == oracle.contains_many_scalar(probes)
        finally:
            shared.unlink_shared()  # must not BufferError on the cached view

    def test_public_routing_goes_columnar_at_min_batch_1(self, monkeypatch):
        import repro.storage.bloom as bloom_mod

        monkeypatch.setattr(bloom_mod, "NUMPY_MIN_BATCH", 1)
        keys = [os.urandom(20) for _ in range(10)]
        routed = BloomFilter(num_bits=2048, num_hashes=4)
        oracle = BloomFilter(num_bits=2048, num_hashes=4)
        routed.add_many(keys)  # 10 >= 1: the public router takes the numpy path
        oracle.add_many_scalar(keys)
        assert bytes(routed.raw_bits()) == bytes(oracle.raw_bits())
        assert routed.contains_many(keys) == oracle.contains_many_scalar(keys)

    def test_non_digest_filter_falls_back_cleanly(self):
        bloom = BloomFilter(num_bits=1024, num_hashes=3, digest_keys=False)
        assert not bloom.columnar_eligible
        bloom.add_many_np([b"short", b"keys"])  # falls back to the packed path
        assert bloom.contains_many_np([b"short", b"nope"]) == [True, False]


@needs_numpy
class TestNumpyCuckooDifferential:
    @needs_shm
    @FAST
    @given(kv_lists, digest_lists)
    def test_get_and_contains_np_match_scalar(self, items, extra_probes):
        items = _with_duplicates(items)
        table = CuckooHashTable(initial_buckets=8, slots_per_bucket=2, shared=True)
        try:
            table.put_many(items)
            probes = [key for key, _ in items] + extra_probes
            assert table.get_many_np(probes, default=-1) == table.get_many_scalar(
                probes, default=-1
            )
            assert table.contains_many_np(probes) == table.contains_many_scalar(probes)
        finally:
            table.unlink_shared()

    @needs_shm
    def test_digest_batch_probes_match_list_probes(self):
        rng = random.Random(11)
        table = CuckooHashTable(initial_buckets=8, slots_per_bucket=2, shared=True)
        try:
            entries = [(rng.randbytes(20), index) for index in range(200)]
            table.put_many(entries)
            probes = [key for key, _ in entries[::2]] + [rng.randbytes(20) for _ in range(40)]
            batch = DigestBatch.from_blob(b"".join(probes), 4096)
            assert table.get_many_np(batch) == table.get_many_scalar(probes)
            assert table.contains_many_np(batch) == table.contains_many_scalar(probes)
        finally:
            table.unlink_shared()

    def test_list_backing_falls_back_and_agrees(self):
        # No packed buffer behind a private table: get_many_np must detect
        # that and still answer (via the routed scalar path).
        table = CuckooHashTable(initial_buckets=8, slots_per_bucket=2)
        entries = [(os.urandom(20), index) for index in range(64)]
        table.put_many(entries)
        probes = [key for key, _ in entries] + [os.urandom(20) for _ in range(8)]
        assert table.get_many_np(probes, default=-7) == table.get_many_scalar(
            probes, default=-7
        )
        assert table.contains_many_np(probes) == table.contains_many_scalar(probes)


@needs_numpy
class TestColumnarFusedKernelDifferential:
    """The columnar fused family vs the scalar ``serve_bucket`` loop.

    ``NUMPY_MIN_BATCH`` is pinned to 1 inside the test so every batch --
    including single-key ones -- takes the columnar bloom-prefetch path;
    the dirty-flag protocol must keep verdicts, counters, bloom bits, and
    cache state byte-identical to the per-key loop.
    """

    def _force_columnar(self):
        import repro.core.hash_node as hash_node_mod

        original = hash_node_mod.NUMPY_MIN_BATCH
        hash_node_mod.NUMPY_MIN_BATCH = 1
        return hash_node_mod, original

    @SLOWER
    @given(batch_lists)
    def test_columnar_serve_bucket_batch_matches_scalar_loop(self, batches):
        hash_node_mod, original = self._force_columnar()
        try:
            scalar, columnar = _twin_nodes()
            assert columnar.kernel_backend == "numpy"
            for pairs in batches:
                pairs = _with_duplicates(pairs)
                fingerprints = [
                    Fingerprint(digest=digest, chunk_size=size) for digest, size in pairs
                ]
                scalar_replies, scalar_new = scalar.serve_bucket(fingerprints)
                columnar_replies, columnar_new = columnar.serve_bucket_batch(
                    DigestBatch.from_fingerprints(fingerprints)
                )
                assert scalar_new == columnar_new
                assert list(map(_reply_tuple, scalar_replies)) == list(
                    map(_reply_tuple, columnar_replies)
                )
            assert scalar.counters.as_dict() == columnar.counters.as_dict()
            assert scalar.store.stats() == columnar.store.stats()
            assert bytes(scalar.bloom.raw_bits()) == bytes(columnar.bloom.raw_bits())
            assert scalar.bloom.count == columnar.bloom.count
            assert list(scalar.cache.data) == list(columnar.cache.data)
        finally:
            hash_node_mod.NUMPY_MIN_BATCH = original

    @SLOWER
    @given(batch_lists)
    def test_columnar_serve_digest_batch_matches_scalar_loop(self, batches):
        hash_node_mod, original = self._force_columnar()
        try:
            scalar, columnar = _twin_nodes()
            for pairs in batches:
                fingerprints = [
                    Fingerprint(digest=digest, chunk_size=size) for digest, size in pairs
                ]
                scalar_replies, scalar_new = scalar.serve_bucket(fingerprints)
                verdicts, columnar_new = columnar.serve_digest_batch(
                    DigestBatch.from_blob(
                        b"".join(digest for digest, _ in pairs),
                        [size for _, size in pairs],
                    )
                )
                assert scalar_new == columnar_new
                assert [reply.is_duplicate for reply in scalar_replies] == verdicts
            assert scalar.counters.as_dict() == columnar.counters.as_dict()
            assert scalar.store.stats() == columnar.store.stats()
            assert sorted(scalar.store.items()) == sorted(columnar.store.items())
        finally:
            hash_node_mod.NUMPY_MIN_BATCH = original

    def test_default_crossover_keeps_small_batches_scalar(self):
        # Below REPRO_NUMPY_MIN_BATCH the serve methods must not pay the
        # columnar setup; the packed per-key family answers instead.  The
        # result is identical either way -- this pins the routing itself.
        node, _ = _twin_nodes()
        assert node.kernel_backend == "numpy"
        small = [Fingerprint(digest=os.urandom(20), chunk_size=4096) for _ in range(4)]
        replies, new_entries = node.serve_bucket_batch(DigestBatch.from_fingerprints(small))
        assert new_entries == 4
        assert [reply.is_duplicate for reply in replies] == [False] * 4


@needs_numpy
def test_crossover_counts_the_keys_that_reach_the_bloom_stage(monkeypatch):
    """128 keys, 95% RAM hits -> packed family; 50% -> columnar family.

    Only the family moves: a twin node forced the other way (crossover
    pinned to 1 / to "never") ends in the same state with the same
    verdicts, service times and new pairs.
    """
    import repro.core.hash_node as hash_node_mod

    rng = random.Random(13)
    known = [rng.randbytes(20) for _ in range(256)]
    config = HashNodeConfig(
        ram_cache_entries=512, bloom_expected_items=4096, ssd_buckets=64
    )
    batches = [  # (RAM hits, family expected at the default crossover)
        (known[:122] + [rng.randbytes(20) for _ in range(6)], False),
        (known[128:192] + [rng.randbytes(20) for _ in range(64)], True),
    ]
    for digests, _ in batches:
        rng.shuffle(digests)

    def _serve_all(crossovers):
        node = HybridHashNode("crossover", config=config)
        node.serve_digest_batch(DigestBatch.from_blob(b"".join(known), 4096))
        run_fused, families, outputs = node._run_fused, [], []

        def _spy(*args, columnar=False):
            families.append(columnar)
            return run_fused(*args, columnar=columnar)

        node._run_fused = _spy
        for (digests, _), crossover in zip(batches, crossovers):
            monkeypatch.setattr(hash_node_mod, "NUMPY_MIN_BATCH", crossover)
            outputs.append(
                node.serve_bucket_verdicts(DigestBatch.from_blob(b"".join(digests), 4096))
            )
        assert node.kernel_backend == "numpy"
        state = (
            node.counters.as_dict(), node.store.stats(), sorted(node.store.items()),
            bytes(node.bloom.raw_bits()), node.bloom.count, list(node.cache.data),
            node.lookup_latency.as_dict(),
        )
        return families, outputs, state

    families, outputs, state = _serve_all([64, 64])
    assert families == [expected for _, expected in batches]
    assert [len(new_pairs) for _, _, new_pairs in outputs] == [6, 64]
    forced_families, forced_outputs, forced_state = _serve_all([1, 1 << 62])
    assert forced_families == [not expected for _, expected in batches]
    assert forced_outputs == outputs
    assert forced_state == state


def test_worker_stats_report_kernel_backend():
    # The /stats payload must carry the backend either way; which value it
    # is depends on whether numpy imported in this process.
    from repro.serving.worker import _stats

    node = HybridHashNode(
        "stats", config=HashNodeConfig(bloom_expected_items=512, ssd_buckets=16)
    )
    payload = _stats(node)
    assert payload["kernel_backend"] == node.kernel_backend
    assert payload["kernel_backend"] in ("numpy", "python-packed")


class TestForcedNoNumpyFallback:
    """Satellite: the pure-Python leg, exercised in a real subprocess.

    ``REPRO_FORCE_NO_NUMPY=1`` is read at import time, so the only honest
    way to test the fallback with numpy installed is a fresh interpreter.
    The child proves the backend reports ``python-packed``, the ``*_np``
    entry points fall back bit-identically, and the serving gateway boots
    and answers stats with the fallback backend name.
    """

    REPO_ROOT = Path(__file__).resolve().parents[1]

    def _run_child(self, script: str) -> None:
        env = dict(os.environ)
        env["REPRO_FORCE_NO_NUMPY"] = "1"
        env["PYTHONPATH"] = str(self.REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            cwd=str(self.REPO_ROOT),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, (
            f"no-numpy child failed\nstdout:\n{result.stdout}\nstderr:\n{result.stderr}"
        )

    def test_backend_and_kernels_fall_back_bit_identically(self):
        self._run_child(
            """
            import os

            from repro.storage import npy
            from repro.storage.bloom import BloomFilter
            from repro.storage.cuckoo import CuckooHashTable
            from repro.core.config import HashNodeConfig
            from repro.core.digest_batch import DigestBatch
            from repro.core.hash_node import HybridHashNode

            assert npy.np is None and not npy.HAVE_NUMPY
            assert npy.backend_name() == "python-packed"

            keys = [os.urandom(20) for _ in range(200)]
            routed = BloomFilter(num_bits=4096, num_hashes=4)
            oracle = BloomFilter(num_bits=4096, num_hashes=4)
            routed.add_many_np(keys)  # explicit entry point must fall back
            oracle.add_many_scalar(keys)
            assert bytes(routed.raw_bits()) == bytes(oracle.raw_bits())
            probes = keys + [os.urandom(20) for _ in range(32)]
            assert routed.contains_many_np(probes) == oracle.contains_many_scalar(probes)
            assert not routed.columnar_eligible

            table = CuckooHashTable(initial_buckets=8, slots_per_bucket=2)
            entries = [(os.urandom(20), index) for index in range(64)]
            table.put_many(entries)
            lookup = [key for key, _ in entries] + [os.urandom(20) for _ in range(8)]
            assert table.get_many_np(lookup, default=-1) == table.get_many_scalar(
                lookup, default=-1
            )

            node = HybridHashNode(
                "no-numpy", config=HashNodeConfig(bloom_expected_items=512, ssd_buckets=16)
            )
            assert node.kernel_backend == "python-packed"
            from repro.serving.worker import _stats
            assert _stats(node)["kernel_backend"] == "python-packed"
            digests = [os.urandom(20) for _ in range(100)]
            verdicts, new_entries = node.serve_digest_batch(
                DigestBatch.from_blob(b"".join(digests), 4096)
            )
            assert new_entries == 100 and verdicts == [False] * 100
            again, _ = node.serve_digest_batch(
                DigestBatch.from_blob(b"".join(digests), 4096)
            )
            assert again == [True] * 100  # every key is now a duplicate
            print("no-numpy kernels ok")
            """
        )

    def test_serve_stack_boots_without_numpy(self):
        self._run_child(
            """
            import asyncio

            from repro.serving.gateway import ServeConfig, ServiceGateway

            async def go():
                gateway = ServiceGateway(
                    ServeConfig(
                        port=0,
                        num_nodes=2,
                        node_config={"bloom_expected_items": 10_000},
                    )
                )
                await gateway.start()
                try:
                    stats = gateway.stats()
                    workers = stats["workers"]
                    assert len(workers) == 2
                finally:
                    await gateway.close()

            asyncio.run(go())
            print("no-numpy serve ok")
            """
        )
