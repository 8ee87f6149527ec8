"""Tests for the cuckoo hash table and the SSD/file hash stores."""

from __future__ import annotations

import hashlib
import os
import random

import pytest

from repro.storage.cuckoo import CuckooHashTable
from repro.storage.hashstore import FileHashStore, IOOperation, SSDHashStore


def _digests(start: int, count: int) -> list:
    """20-byte SHA-1 fingerprints, the only key type of the table and the store."""
    return [hashlib.sha1(index.to_bytes(8, "big")).digest() for index in range(start, start + count)]


KEY, MISSING = _digests(0, 2)


class TestCuckooHashTable:
    def test_put_get_roundtrip(self):
        table = CuckooHashTable(initial_buckets=16)
        table.put(KEY, 123)
        assert table.get(KEY) == 123
        assert KEY in table
        assert len(table) == 1

    def test_get_missing_returns_default(self):
        table = CuckooHashTable()
        assert table.get(MISSING) is None
        assert table.get(MISSING, "fallback") == "fallback"
        assert MISSING not in table

    def test_update_in_place_does_not_grow_size(self):
        table = CuckooHashTable()
        table.put(KEY, 1)
        table.put(KEY, 2)
        assert len(table) == 1
        assert table.get(KEY) == 2

    def test_remove(self):
        table = CuckooHashTable()
        table.put(KEY, 1)
        assert table.remove(KEY) is True
        assert table.remove(KEY) is False
        assert len(table) == 0

    def test_many_inserts_with_growth(self):
        table = CuckooHashTable(initial_buckets=8, slots_per_bucket=2)
        items = {key: i for i, key in enumerate(_digests(0, 5000))}
        for key, value in items.items():
            table.put(key, value)
        assert len(table) == 5000
        assert table.resizes > 0
        for key, value in items.items():
            assert table.get(key) == value

    def test_items_and_keys_cover_everything(self):
        table = CuckooHashTable(initial_buckets=16)
        keys = set(_digests(0, 200))
        for key in keys:
            table.put(key, True)
        assert set(table.keys()) == keys
        assert {k for k, _v in table.items()} == keys

    def test_load_factor_bounded(self):
        table = CuckooHashTable(initial_buckets=8, slots_per_bucket=4)
        for i, key in enumerate(_digests(0, 1000)):
            table.put(key, i)
        assert 0.0 < table.load_factor() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CuckooHashTable(initial_buckets=0)
        with pytest.raises(ValueError):
            CuckooHashTable(slots_per_bucket=0)

    def test_a_str_key_is_refused(self):
        table = CuckooHashTable(initial_buckets=16)
        routes = (lambda key: table.put(key, 1), table.get, table.remove, table.__contains__)
        for route in routes:
            with pytest.raises(TypeError):
                route("x" * 20)
        assert len(table) == 0


class TestCuckooDigestFastPath:
    def test_random_ops_match_a_dict(self):
        """A seeded put/get/remove sequence answers exactly as a dict does."""
        rng = random.Random(9)
        keys = _digests(0, 1500)
        table = CuckooHashTable(initial_buckets=64)
        live = {}
        for step in range(4000):
            key = rng.choice(keys)
            op = rng.random()
            if op < 0.6:
                table.put(key, step)
                live[key] = step
            elif op < 0.8:
                assert table.get(key) == live.get(key)
            else:
                assert table.remove(key) == (live.pop(key, None) is not None)
        assert len(table) == len(live)
        assert all(table.get(key) == live.get(key) for key in keys)
        assert dict(table.items()) == live

    def test_digest_path_survives_growth(self):
        table = CuckooHashTable(initial_buckets=4, slots_per_bucket=2)
        keys = _digests(0, 2000)
        for index, key in enumerate(keys):
            table.put(key, index)
        assert table.resizes > 0
        assert all(table.get(key) == index for index, key in enumerate(keys))

    def test_a_key_that_is_not_a_digest_raises(self):
        table = CuckooHashTable(initial_buckets=16)
        for key in (b"short", KEY + b"!"):
            with pytest.raises(ValueError):
                table.put(key, 1)
            with pytest.raises(ValueError):
                table.get(key)
        assert len(table) == 0


class TestSSDHashStore:
    def test_put_get_contains(self):
        store = SSDHashStore(num_buckets=64)
        assert store.put(b"a" * 20, 8192) is True
        assert store.put(b"a" * 20, 8192) is False  # already present
        assert store.get(b"a" * 20) == 8192
        assert (b"a" * 20) in store
        assert len(store) == 1

    def test_remove(self):
        store = SSDHashStore(num_buckets=64)
        store.put(KEY, 1)
        assert store.remove(KEY) is True
        assert store.remove(KEY) is False
        assert len(store) == 0

    def test_items_iterates_everything(self):
        store = SSDHashStore(num_buckets=16)
        keys = {os.urandom(20) for _ in range(300)}
        for key in keys:
            store.put(key, True)
        assert {k for k, _v in store.items()} == keys
        assert set(store.keys()) == keys

    def test_bucket_of_is_stable_and_in_range(self):
        store = SSDHashStore(num_buckets=128)
        key = os.urandom(20)
        assert store.bucket_of(key) == store.bucket_of(key)
        assert 0 <= store.bucket_of(key) < 128

    def test_lookup_io_is_single_page_when_not_overflowing(self):
        store = SSDHashStore(num_buckets=1 << 12, page_size=4096, entry_size=48)
        key = os.urandom(20)
        store.put(key, True)
        operations = store.lookup_io(key)
        assert len(operations) == 1
        assert operations[0] == IOOperation("read", 4096)

    def test_lookup_io_grows_with_overflowing_bucket(self):
        store = SSDHashStore(num_buckets=1, page_size=256, entry_size=64)
        for i in range(20):  # 20 entries, 4 per page -> 5 pages
            store.put(os.urandom(20), i)
        assert len(store.lookup_io(os.urandom(20))) == 5

    def test_insert_io_amortises_writes(self):
        store = SSDHashStore(num_buckets=64, page_size=4096, entry_size=64)
        writes = []
        for i in range(200):
            key = os.urandom(20)
            store.put(key, True)
            writes.extend(store.insert_io(key))
        # 200 inserts at 64 entries per page -> about 3 page writes.
        assert 2 <= len(writes) <= 5
        assert all(op.kind == "write" for op in writes)

    def test_insert_io_immediate_mode(self):
        store = SSDHashStore(num_buckets=64, write_buffer_pages=0)
        key = os.urandom(20)
        store.put(key, True)
        operations = store.insert_io(key)
        assert len(operations) == 1 and operations[0].kind == "write"

    def test_a_key_that_cannot_be_placed_leaves_no_entry(self):
        store = SSDHashStore(num_buckets=64)
        with pytest.raises(TypeError):
            store.put("x" * 20, 1)
        assert len(store) == 0 and "x" * 20 not in store
        assert store.stats()["entries"] == 0 and sum(store._counts) == 0
        assert store.put(KEY, 1) is True and len(store) == 1

    def test_stats_keys(self):
        store = SSDHashStore(num_buckets=64)
        store.put(KEY, 1)
        assert set(store.stats()) >= {"entries", "buckets", "page_reads", "page_writes"}

    def test_validation(self):
        with pytest.raises(ValueError):
            SSDHashStore(num_buckets=0)
        with pytest.raises(ValueError):
            SSDHashStore(page_size=16, entry_size=64)
        with pytest.raises(ValueError):
            IOOperation("bogus", 4096)
        with pytest.raises(ValueError):
            IOOperation("read", 0)


class TestFileHashStore:
    def test_put_get_roundtrip(self, tmp_path):
        path = str(tmp_path / "store.log")
        with FileHashStore(path) as store:
            store.put(b"key", b"value")
            assert store.get(b"key") == b"value"
            assert b"key" in store
            assert len(store) == 1

    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "store.log")
        with FileHashStore(path) as store:
            store.put(b"alpha", b"1")
            store.put(b"beta", b"2")
            store.delete(b"alpha")
        with FileHashStore(path) as reopened:
            assert reopened.get(b"alpha") is None
            assert reopened.get(b"beta") == b"2"
            assert len(reopened) == 1

    def test_overwrite_keeps_latest_value(self, tmp_path):
        path = str(tmp_path / "store.log")
        with FileHashStore(path) as store:
            store.put(b"key", b"old")
            store.put(b"key", b"new")
        with FileHashStore(path) as reopened:
            assert reopened.get(b"key") == b"new"

    def test_truncated_tail_record_ignored(self, tmp_path):
        path = str(tmp_path / "store.log")
        with FileHashStore(path) as store:
            store.put(b"good", b"value")
        clean_size = os.path.getsize(path)
        with open(path, "ab") as log:
            log.write(b"\x01\x00\x00")  # garbage partial record
        with FileHashStore(path) as reopened:
            assert reopened.get(b"good") == b"value"
            assert len(reopened) == 1
            # Recovery truncates the torn tail back to the record boundary.
            assert reopened.truncated_bytes == 3
            assert os.path.getsize(path) == clean_size
            # Appends after recovery land on the clean boundary and survive.
            reopened.put(b"after", b"crash")
        with FileHashStore(path) as again:
            assert again.get(b"after") == b"crash"
            assert again.truncated_bytes == 0

    def test_corrupt_record_body_truncates_from_there(self, tmp_path):
        path = str(tmp_path / "store.log")
        with FileHashStore(path) as store:
            store.put(b"first", b"ok")
        first_size = os.path.getsize(path)
        with FileHashStore(path) as store:
            store.put(b"second", b"bitrot-target")
            store.put(b"third", b"after-corruption")
        # Flip one bit inside the second record's value: its CRC32 no longer
        # matches, so recovery must drop it AND everything after it.
        data = bytearray(open(path, "rb").read())
        data[first_size + 20] ^= 0x01
        with open(path, "wb") as log:
            log.write(data)
        with FileHashStore(path) as reopened:
            assert reopened.get(b"first") == b"ok"
            assert reopened.get(b"second") is None
            assert reopened.get(b"third") is None
            assert reopened.truncated_bytes == len(data) - first_size
            assert reopened.record_count == 1
        assert os.path.getsize(path) == first_size

    def test_record_count_and_scan(self, tmp_path):
        path = str(tmp_path / "store.log")
        with FileHashStore(path) as store:
            store.put(b"a", b"1")
            store.put(b"b", b"2")
            store.delete(b"a")
            assert store.record_count == 3
        records = list(FileHashStore.scan(path))
        assert [(op, key) for op, key, _value in records] == [
            (FileHashStore._OP_PUT, b"a"),
            (FileHashStore._OP_PUT, b"b"),
            (FileHashStore._OP_DELETE, b"a"),
        ]
        with FileHashStore(path) as reopened:
            assert reopened.record_count == 3
            reopened.compact()
            # Compaction rewrites only live records and resets the count.
            assert reopened.record_count == 1

    def test_fsync_mode_roundtrip(self, tmp_path):
        path = str(tmp_path / "store.log")
        with FileHashStore(path, fsync=True) as store:
            store.put(b"key", b"value")
            store.put(b"k2", b"v2")
            store.delete(b"k2")
            store.compact()
        with FileHashStore(path) as reopened:
            assert reopened.get(b"key") == b"value"
            assert len(reopened) == 1

    def test_compact_shrinks_log(self, tmp_path):
        path = str(tmp_path / "store.log")
        with FileHashStore(path) as store:
            for i in range(50):
                store.put(b"key", f"value-{i}".encode())
            size_before = os.path.getsize(path)
            store.compact()
            size_after = os.path.getsize(path)
            assert size_after < size_before
            assert store.get(b"key") == b"value-49"

    def test_delete_missing_returns_false(self, tmp_path):
        with FileHashStore(str(tmp_path / "s.log")) as store:
            assert store.delete(b"nope") is False

    def test_a_str_key_is_refused_before_anything_is_logged(self, tmp_path):
        path = str(tmp_path / "s.log")
        with FileHashStore(path) as store:
            with pytest.raises(TypeError):
                store.put("key", b"value")
            assert len(store) == 0 and store.record_count == 0
            store.put(b"key", b"value")
        with FileHashStore(path) as reopened:
            assert dict(reopened.items()) == {b"key": b"value"}
            assert reopened.record_count == 1 and reopened.truncated_bytes == 0


class TestHotPathAccessors:
    """The node kernel's inlined store access vs. the IOOperation-list cost model.

    The fused batch kernel (core/bucket_kernel.py) charges device time
    from page counts it derives itself from ``batch_state()`` and settles
    with ``settle_batch()``; these pins guarantee that accounting and state
    stay identical to ``lookup_io`` + ``in`` and ``put`` + ``insert_io`` on
    a reference store driven key by key.
    """

    def _node_and_reference(self, page_size=4096, entry_size=48, write_buffer_pages=64):
        from repro.core.config import HashNodeConfig
        from repro.core.hash_node import HybridHashNode
        from repro.storage.hashstore import SSDHashStore

        config = HashNodeConfig(
            ram_cache_entries=1,  # nearly every repeat reaches the store probe
            bloom_expected_items=4096,
            ssd_buckets=32,
            ssd_page_size=page_size,
            ssd_entry_size=entry_size,
            ssd_write_buffer_pages=write_buffer_pages,
        )
        node = HybridHashNode("pages", config=config)
        reference = SSDHashStore(
            num_buckets=32,
            page_size=page_size,
            entry_size=entry_size,
            write_buffer_pages=write_buffer_pages,
        )
        return node, reference

    @staticmethod
    def _serve(node, keys, value):
        from repro.core.digest_batch import DigestBatch

        return node.serve_bucket_verdicts(DigestBatch.from_blob(b"".join(keys), value))[0]

    def test_probe_pages_matches_lookup_io_and_contains(self):
        import random

        node, reference = self._node_and_reference(page_size=256, entry_size=48)
        rng = random.Random(5)
        # Placement reads the trailing word: a last byte of i % 4 lands the
        # 120 keys in 4 of the 32 buckets, 30 entries (6 pages) each.
        keys = [bytes([i]) * 19 + bytes([i % 4]) for i in range(120)]
        self._serve(node, keys, 1)
        for key in keys:
            reference.put(key, 1)
            reference.insert_io(key)
        # Re-offer every key: each one misses the 1-entry LRU, passes the
        # bloom filter and probes its bucket -- several pages deep here.
        probes = rng.sample(keys, len(keys))
        tiers = self._serve(node, probes, 1)
        pages = 0
        for key in probes:
            operations = reference.lookup_io(key)
            assert all(op.kind == "read" and op.random_access for op in operations)
            pages += len(operations)
            assert key in reference
        assert tiers == [2] * len(probes)
        assert pages > len(probes)  # multi-page buckets were exercised
        assert node.store.stats() == reference.stats()

    def test_insert_new_pages_matches_put_plus_insert_io(self):
        node, reference = self._node_and_reference(
            page_size=256, entry_size=48, write_buffer_pages=2
        )
        keys = [bytes([i, i]) * 10 for i in range(40)]
        for start in (0, 13, 27):  # flush boundaries fall inside and across batches
            batch = keys[start:start + 13] if start < 27 else keys[start:]
            assert self._serve(node, batch, 7) == [0] * len(batch)
            for key in batch:
                assert reference.put(key, 7) is True
                assert all(op.kind == "write" for op in reference.insert_io(key))
        assert node.store.stats() == reference.stats()
        assert node.store.buffer_flushes > 0
        assert dict(node.store.items()) == dict(reference.items())

    def test_insert_new_pages_unbuffered_mode(self):
        node, reference = self._node_and_reference(write_buffer_pages=0)
        key = b"k" * 20
        assert self._serve(node, [key], 9) == [0]
        reference.put(key, 9)
        operations = reference.insert_io(key)
        assert len(operations) == 1 and operations[0].random_access
        assert node.store.page_writes == 1
        assert node.store.stats() == reference.stats()
