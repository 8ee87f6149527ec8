"""Tests for the write-ahead log and the cloud object store."""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.simulation.engine import Simulator
from repro.storage.object_store import CloudObjectStore
from repro.storage.wal import WriteAheadLog


class TestWriteAheadLog:
    def test_append_assigns_increasing_lsns(self):
        wal = WriteAheadLog()
        first = wal.append("create", node="n1")
        second = wal.append("delete", node="n2")
        assert first.lsn == 1 and second.lsn == 2
        assert wal.last_lsn == 2
        assert len(wal) == 2

    def test_replay_returns_records_after_lsn(self):
        wal = WriteAheadLog()
        for index in range(5):
            wal.append("op", index=index)
        replayed = list(wal.replay(after_lsn=3))
        assert [record.lsn for record in replayed] == [4, 5]
        assert replayed[0]["index"] == 3

    def test_checkpoint_drops_old_records(self):
        wal = WriteAheadLog()
        for index in range(5):
            wal.append("op", index=index)
        dropped = wal.checkpoint(up_to_lsn=3)
        assert dropped == 3
        assert [record.lsn for record in wal.replay()] == [4, 5]

    def test_persistence_and_recovery(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append("add_node", node="hashnode-4")
            wal.append("remove_node", node="hashnode-1")
        with WriteAheadLog(path) as recovered:
            records = list(recovered.replay())
            assert [record.kind for record in records] == ["add_node", "remove_node"]
            assert recovered.last_lsn == 2
            # New appends continue the LSN sequence.
            assert recovered.append("noop").lsn == 3

    def test_recovery_ignores_corrupt_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append("good")
        with open(path, "a", encoding="utf-8") as log:
            log.write('{"lsn": 2, "kind": "trunc')  # no closing brace / newline
        with WriteAheadLog(path) as recovered:
            assert [record.kind for record in recovered.replay()] == ["good"]

    def test_checkpoint_persists_truncation(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            for index in range(10):
                wal.append("op", index=index)
            wal.checkpoint(up_to_lsn=8)
        with WriteAheadLog(path) as recovered:
            assert [record.lsn for record in recovered.replay()] == [9, 10]

    def test_fsync_append_and_checkpoint(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, fsync=True) as wal:
            for index in range(5):
                wal.append("op", index=index)
            wal.checkpoint(up_to_lsn=3)
        with WriteAheadLog(path) as recovered:
            assert [record.lsn for record in recovered.replay()] == [4, 5]

    def test_crash_during_checkpoint_leaves_replayable_log(self, tmp_path):
        # A checkpoint writes the surviving records to wal.log.tmp and only
        # then renames it over the log.  Simulate a crash in between: the
        # tmp file exists but the rename never happened.  Reopening must
        # discard the stale tmp and replay the ORIGINAL, untruncated log.
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            for index in range(6):
                wal.append("op", index=index)
        original = open(path, encoding="utf-8").read()
        with open(path + ".tmp", "w", encoding="utf-8") as temp:
            temp.write('{"lsn": 6, "kind": "op", "index": 5}\n')  # partial rewrite
        with WriteAheadLog(path) as recovered:
            assert [record.lsn for record in recovered.replay()] == [1, 2, 3, 4, 5, 6]
        assert not os.path.exists(path + ".tmp")
        assert open(path, encoding="utf-8").read() == original

    def test_checkpoint_rewrite_is_atomic_on_disk(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            for index in range(4):
                wal.append("op", index=index)
            wal.checkpoint(up_to_lsn=2)
            # The rewrite replaced the file; no tmp residue while open.
            assert not os.path.exists(path + ".tmp")
            # Appends after a checkpoint keep going to the renamed file.
            wal.append("tail")
        with WriteAheadLog(path) as recovered:
            assert [record.lsn for record in recovered.replay()] == [3, 4, 5]


class TestCloudObjectStore:
    def test_put_and_get(self):
        store = CloudObjectStore()
        assert store.put(b"key1", b"data") is True
        assert store.get(b"key1") == b"data"
        assert b"key1" in store
        assert len(store) == 1

    def test_duplicate_put_bumps_reference_count(self):
        store = CloudObjectStore()
        store.put(b"key", b"data")
        assert store.put(b"key", b"data") is False
        assert store.reference_count(b"key") == 2
        assert len(store) == 1

    def test_release_reclaims_when_last_reference_dropped(self):
        store = CloudObjectStore()
        store.put(b"key", b"data")
        store.add_reference(b"key")
        assert store.release(b"key") is True
        assert b"key" in store
        assert store.release(b"key") is True
        assert b"key" not in store

    def test_release_missing_returns_false(self):
        assert CloudObjectStore().release(b"nope") is False

    def test_add_reference_missing_returns_false(self):
        assert CloudObjectStore().add_reference(b"nope") is False

    def test_total_bytes_tracks_physical_size(self):
        store = CloudObjectStore()
        store.put(b"a", b"x" * 100)
        store.put(b"b", b"y" * 50)
        store.put(b"a", b"x" * 100)  # duplicate: no extra bytes
        assert store.total_bytes() == 150

    def test_content_verification(self):
        store = CloudObjectStore(verify_content=True)
        data = b"verified chunk"
        store.put(hashlib.sha1(data).digest(), data)
        with pytest.raises(ValueError):
            store.put(b"\x00" * 20, data)

    def test_get_missing_returns_none(self):
        assert CloudObjectStore().get(b"missing") is None

    def test_stats_keys(self):
        store = CloudObjectStore()
        store.put(b"a", b"data")
        stats = store.stats()
        assert stats["objects"] == 1
        assert stats["puts"] == 1
        assert stats["physical_bytes"] == 4

    def test_transfer_time_scales_with_size(self):
        store = CloudObjectStore(base_latency=0.01, bandwidth=1e6)
        assert store.transfer_time(0) == pytest.approx(0.01)
        assert store.transfer_time(1_000_000) == pytest.approx(1.01)
