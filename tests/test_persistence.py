"""Tests for crash-consistent node storage: snapshots, persistence, kill/restart."""

from __future__ import annotations

import errno
import os

import pytest

from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.hash_node import HybridHashNode
from repro.core.persistence import NodePersistence, PersistencePolicy
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.simulation.costmodel import CostModel
from repro.storage.bloom import BloomFilter
from repro.storage.fplog import OP_PUT, OP_REMOVE, FingerprintLog, LogFormatError
from repro.storage.hashstore import FileHashStore
from repro.storage.snapshot import SnapshotError, read_snapshot, write_snapshot

NODE_CONFIG = HashNodeConfig(
    ram_cache_entries=128,
    bloom_expected_items=4_096,
    ssd_buckets=1 << 8,
)


def _cluster_config(num_nodes: int = 3, replication_factor: int = 2) -> ClusterConfig:
    return ClusterConfig(
        num_nodes=num_nodes,
        replication_factor=replication_factor,
        node=NODE_CONFIG,
    )


# ---------------------------------------------------------------------- snapshot
class TestSnapshotFile:
    def test_roundtrip_meta_and_payload(self, tmp_path):
        path = str(tmp_path / "state.snap")
        payload = bytes(range(256)) * 10
        written = write_snapshot(path, payload, {"records": 7, "kind": "bloom"})
        assert written == os.path.getsize(path) > len(payload)
        meta, loaded = read_snapshot(path)
        assert meta == {"records": 7, "kind": "bloom"}
        assert bytes(loaded) == payload

    def test_read_without_mmap(self, tmp_path):
        path = str(tmp_path / "state.snap")
        write_snapshot(path, b"payload", {"n": 1})
        meta, loaded = read_snapshot(path, use_mmap=False)
        assert meta["n"] == 1 and bytes(loaded) == b"payload"

    def test_write_leaves_no_tmp_residue(self, tmp_path):
        path = str(tmp_path / "state.snap")
        write_snapshot(path, b"x", {})
        assert os.listdir(str(tmp_path)) == ["state.snap"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            read_snapshot(str(tmp_path / "absent.snap"))

    def test_bad_magic_raises(self, tmp_path):
        path = str(tmp_path / "state.snap")
        write_snapshot(path, b"payload", {})
        data = bytearray(open(path, "rb").read())
        data[0] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_truncated_payload_raises(self, tmp_path):
        path = str(tmp_path / "state.snap")
        write_snapshot(path, b"0123456789", {})
        size = os.path.getsize(path)
        with open(path, "r+b") as file:
            file.truncate(size - 4)
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_corrupt_payload_byte_raises(self, tmp_path):
        path = str(tmp_path / "state.snap")
        write_snapshot(path, b"0123456789", {})
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0x01  # last payload byte: CRC must catch it
        open(path, "wb").write(bytes(data))
        with pytest.raises(SnapshotError):
            read_snapshot(path)


class TestBloomSnapshotPayload:
    def test_roundtrip_preserves_membership_and_count(self):
        source = BloomFilter(expected_items=512)
        keys = [synthetic_fingerprint(i).digest for i in range(100)]
        source.add_many(keys)
        payload = source.snapshot_payload()

        target = BloomFilter(expected_items=512)
        target.restore_payload(payload, source.count)
        assert target.count == source.count
        assert all(key in target for key in keys)

    def test_restore_rejects_wrong_geometry(self):
        source = BloomFilter(expected_items=512)
        target = BloomFilter(expected_items=8_192)
        with pytest.raises(ValueError):
            target.restore_payload(source.snapshot_payload(), 0)

    def test_restore_mutates_bits_in_place(self):
        # The exec-generated probe kernels capture the bit array at
        # construction; restore must fill that same object, not rebind it.
        bloom = BloomFilter(expected_items=512)
        bits_before = bloom._bits
        other = BloomFilter(expected_items=512)
        key = bytes(range(20))
        other.add(key)
        bloom.restore_payload(other.snapshot_payload(), other.count)
        assert bloom._bits is bits_before
        assert key in bloom


# --------------------------------------------------------------- fingerprint log
def _append_puts(log: FingerprintLog, keys) -> None:
    log.append(OP_PUT, keys, [len(key) for key in keys])


def _replayed(log: FingerprintLog):
    return [(op, list(keys), list(values)) for op, keys, values in log.replay()]


class TestFingerprintLogFile:
    """Whose file it is comes before what is wrong with it."""

    def test_zero_length_file_is_a_fresh_log(self, tmp_path):
        path = str(tmp_path / "containers.log")
        open(path, "wb").close()
        log = FingerprintLog(path)
        assert (log.records, log.truncated_bytes) == (0, 0)
        _append_puts(log, [b"k" * 20])
        log.close()
        reopened = FingerprintLog(path)
        assert (reopened.records, reopened.truncated_bytes) == (1, 0)
        assert reopened.size == os.path.getsize(path)
        reopened.close()

    def test_legacy_per_record_container_is_refused_untouched(self, tmp_path):
        path = str(tmp_path / "containers.log")
        with FileHashStore(path) as legacy:
            legacy.put(b"k" * 20, b"\x00" * 8)
        before = open(path, "rb").read()
        with pytest.raises(LogFormatError, match="per-record FileHashStore container"):
            NodePersistence(str(tmp_path))
        assert open(path, "rb").read() == before

    def test_foreign_file_is_refused_untouched(self, tmp_path):
        path = str(tmp_path / "containers.log")
        open(path, "wb").write(b"not ours at all")
        with pytest.raises(LogFormatError, match="foreign file starting b'not ours'"):
            FingerprintLog(path)
        assert open(path, "rb").read() == b"not ours at all"

    def test_newer_version_is_refused_untouched(self, tmp_path):
        path = str(tmp_path / "containers.log")
        log = FingerprintLog(path)
        _append_puts(log, [b"k" * 20])
        log.close()
        blob = bytearray(open(path, "rb").read())
        blob[7] = 3
        open(path, "wb").write(bytes(blob))
        with pytest.raises(LogFormatError, match="version 3 .this build reads 2"):
            FingerprintLog(path)
        assert open(path, "rb").read() == bytes(blob)

    def test_version_1_log_is_refused_untouched(self, tmp_path):
        # A PR 19 log: put frames carry a third column (placement hashes),
        # which version 2 would misframe -- so it is refused, not truncated.
        import struct
        import zlib

        keys = [bytes([i]) * 20 for i in range(3)]
        body = b"".join(keys) + struct.pack("<3Q", 8192, 8192, 8192) + struct.pack("<3Q", 1, 2, 3)
        fields = struct.pack("<BII", OP_PUT, 20, len(keys))
        crc = struct.pack("<I", zlib.crc32(body, zlib.crc32(fields)))
        blob = b"SHHCFPL\x01" + fields + crc + body
        path = str(tmp_path / "containers.log")
        open(path, "wb").write(blob)
        with pytest.raises(LogFormatError, match="version 1 .this build reads 2"):
            NodePersistence(str(tmp_path))
        assert open(path, "rb").read() == blob

    def test_mixed_key_lengths_and_removes_roundtrip(self, tmp_path):
        path = str(tmp_path / "containers.log")
        keys = [b"a" * 20, b"b" * 20, b"short", b"", b"c" * 20]
        log = FingerprintLog(path)
        _append_puts(log, keys)
        log.append(OP_REMOVE, [b"short", b"b" * 20])
        assert log.records == 7
        log.close()
        reopened = FingerprintLog(path)
        assert reopened.records == 7
        frames = _replayed(reopened)
        # One frame per run of equal-length keys, in log order.
        assert [(op, frame_keys) for op, frame_keys, _v in frames] == [
            (OP_PUT, keys[:2]), (OP_PUT, [b"short"]), (OP_PUT, [b""]), (OP_PUT, keys[4:]),
            (OP_REMOVE, [b"short"]), (OP_REMOVE, [b"b" * 20]),
        ]
        assert [values for _op, _k, values in frames] == [[20, 20], [5], [0], [20], [], []]
        reopened.close()

    def test_cut_at_every_byte_of_the_last_frame(self, tmp_path):
        source = str(tmp_path / "whole.log")
        log = FingerprintLog(source)
        _append_puts(log, [bytes([i]) * 20 for i in range(3)])
        log.append(OP_REMOVE, [bytes([1]) * 20])
        boundary = log.size
        _append_puts(log, [bytes([i]) * 20 for i in range(10, 14)])
        log.close()
        whole = open(source, "rb").read()
        log = FingerprintLog(source)
        survivors = _replayed(log)[:-1]
        log.close()
        path = str(tmp_path / "cut.log")
        for cut in range(boundary, len(whole)):
            open(path, "wb").write(whole[:cut])
            torn = FingerprintLog(path)
            assert torn.truncated_bytes == cut - boundary
            assert torn.records == 4 and _replayed(torn) == survivors
            # The next append lands on the frame boundary ...
            assert os.path.getsize(path) == torn.size == boundary
            _append_puts(torn, [b"z" * 20])
            torn.close()
            # ... so a second open is clean.
            again = FingerprintLog(path)
            assert (again.truncated_bytes, again.records) == (0, 5)
            assert _replayed(again)[:-1] == survivors
            again.close()

    @pytest.mark.parametrize("count", [5, 1 << 20, (1 << 32) - 1])
    def test_count_beyond_the_file_is_a_torn_frame_not_an_allocation(self, tmp_path, count):
        import struct

        path = str(tmp_path / "containers.log")
        log = FingerprintLog(path)
        _append_puts(log, [b"k" * 20])
        boundary = log.size
        log.close()
        with open(path, "ab") as raw:
            raw.write(struct.pack("<BIII", OP_PUT, 20, count, 0) + b"x" * 100)
        torn = FingerprintLog(path)
        assert torn.truncated_bytes == 13 + 100
        assert torn.records == 1 and torn.size == boundary
        torn.close()


# ------------------------------------------------------------- node persistence
def _fresh_node(persistence=None) -> HybridHashNode:
    return HybridHashNode("node-0", config=NODE_CONFIG, persistence=persistence)


class TestNodePersistence:
    def test_cold_recovery_rebuilds_store_and_bloom(self, tmp_path):
        directory = str(tmp_path / "node-0")
        fingerprints = [synthetic_fingerprint(i) for i in range(50)]
        with NodePersistence(directory) as persistence:
            persistence.log_insert_many(
                (f.digest, f.chunk_size) for f in fingerprints
            )
        node = _fresh_node()
        with NodePersistence(directory) as persistence:
            report = persistence.recover_into(node)
        assert report.entries == 50
        assert report.replayed == 50  # cold: every live key re-hashed
        assert not report.snapshot_loaded
        assert len(node.store) == 50
        assert all(f in node for f in fingerprints)
        assert all(f.digest in node.bloom for f in fingerprints)
        # Recovered entries are already on flash: no owed buffer flushes.
        assert node.store._buffered_entries == 0

    def test_warm_recovery_replays_only_the_tail(self, tmp_path):
        directory = str(tmp_path / "node-0")
        head = [synthetic_fingerprint(i) for i in range(40)]
        tail = [synthetic_fingerprint(100 + i) for i in range(10)]
        bloom = BloomFilter(
            expected_items=NODE_CONFIG.bloom_expected_items,
            false_positive_rate=NODE_CONFIG.bloom_false_positive_rate,
        )
        with NodePersistence(directory) as persistence:
            persistence.log_insert_many((f.digest, f.chunk_size) for f in head)
            bloom.add_many([f.digest for f in head])
            persistence.take_snapshot(bloom, entries=len(head))
            persistence.log_insert_many((f.digest, f.chunk_size) for f in tail)
        node = _fresh_node()
        with NodePersistence(directory) as persistence:
            report = persistence.recover_into(node)
        assert report.snapshot_loaded
        assert report.snapshot_bytes > 0
        assert report.entries == 50
        assert report.replayed == len(tail)  # only post-snapshot records
        assert all(f in node for f in head + tail)
        assert all(f.digest in node.bloom for f in head + tail)

    def test_snapshot_due_follows_cadence(self, tmp_path):
        with NodePersistence(str(tmp_path / "n"), snapshot_every=10) as persistence:
            assert not persistence.snapshot_due()
            persistence.log_insert_many(
                (synthetic_fingerprint(i).digest, 1) for i in range(10)
            )
            assert persistence.snapshot_due()
            bloom = BloomFilter(expected_items=64)
            persistence.take_snapshot(bloom)
            assert not persistence.snapshot_due()

    @pytest.mark.parametrize("entries", [10, 3_000])
    def test_take_snapshot_is_constant_in_shard_size(self, tmp_path, entries):
        directory = str(tmp_path / "node-0")
        node = _fresh_node(NodePersistence(directory))
        node.lookup_batch([synthetic_fingerprint(i) for i in range(entries)])
        assert len(node.store) == entries
        persistence = node.persistence
        sizes_before = {name: os.path.getsize(os.path.join(directory, name))
                        for name in os.listdir(directory)}
        persistence.take_snapshot(node.bloom, entries=entries, store=node.store)
        # Exactly the two files: no staging residue, no store image.
        assert sorted(os.listdir(directory)) == ["bloom.snap", "containers.log"]
        written = sum(os.path.getsize(os.path.join(directory, name)) - sizes_before.get(name, 0)
                      for name in os.listdir(directory))
        # The bloom image and its meta header (a 25-byte fixed header and
        # five integers of JSON) -- whatever len(store) is.
        assert 0 < written - len(node.bloom.snapshot_payload()) < 128
        assert persistence.last_snapshot_ms > 0
        persistence.close()

    def test_image_ahead_of_the_log_falls_back_to_cold_replay(self, tmp_path):
        directory = str(tmp_path / "node-0")
        fingerprints = [synthetic_fingerprint(i) for i in range(20)]
        bloom = BloomFilter(
            expected_items=NODE_CONFIG.bloom_expected_items,
            false_positive_rate=NODE_CONFIG.bloom_false_positive_rate,
        )
        with NodePersistence(directory) as persistence:
            for fingerprint in fingerprints:
                persistence.log_insert(fingerprint.digest, fingerprint.chunk_size)
            persistence.take_snapshot(bloom, entries=20)
            size = persistence.container.size
        # Lose the last frame: the image now claims more records than exist.
        with open(os.path.join(directory, "containers.log"), "r+b") as log:
            log.truncate(size - 1)
        node = _fresh_node()
        with NodePersistence(directory) as persistence:
            report = persistence.recover_into(node)
        assert not report.snapshot_loaded and report.truncated_bytes > 0
        assert report.entries == report.replayed == 19
        assert all(f.digest in node.bloom for f in fingerprints[:19])

    @pytest.mark.parametrize("new_process", [False, True], ids=["restart", "new-process"])
    def test_a_failed_checkpoint_raises_and_keeps_the_previous_image(
        self, tmp_path, monkeypatch, new_process
    ):
        from repro.storage import snapshot as snapshot_module

        directory = str(tmp_path / "node-0")
        persistence = NodePersistence(directory)
        node = _fresh_node(persistence)
        twin = _fresh_node()  # never crashes, no persistence
        first = [synthetic_fingerprint(i) for i in range(30)]
        second = [synthetic_fingerprint(100 + i) for i in range(20)]
        node.lookup_batch(first)
        persistence.take_snapshot(node.bloom, entries=len(node.store))
        covered = persistence.snapshot_records
        with open(persistence.snapshot_path, "rb") as image:
            previous = image.read()
        node.lookup_batch(second)
        twin.lookup_batch(first + second)

        def disk_full(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with monkeypatch.context() as patch:
            patch.setattr(snapshot_module.os, "fsync", disk_full)
            with pytest.raises(OSError) as failure:
                persistence.take_snapshot(node.bloom, entries=len(node.store))
        assert failure.value.errno == errno.ENOSPC
        assert persistence.snapshot_records == covered
        with open(persistence.snapshot_path, "rb") as image:
            assert image.read() == previous

        node.kill()
        if new_process:
            persistence.close()
            persistence = NodePersistence(directory)
            node = _fresh_node(persistence)
            report = node.last_recovery
        else:
            report = node.restart()
        assert report.snapshot_loaded and report.replayed == len(second)
        assert not os.path.exists(persistence.snapshot_path + ".tmp")
        assert dict(node.store.items()) == dict(twin.store.items())
        assert all(digest in node.bloom for digest in twin.store.keys())
        persistence.close()

    def test_deletes_in_tail_do_not_resurrect(self, tmp_path):
        directory = str(tmp_path / "node-0")
        keep = synthetic_fingerprint(1)
        gone = synthetic_fingerprint(2)
        with NodePersistence(directory) as persistence:
            persistence.log_insert(keep.digest, keep.chunk_size)
            persistence.log_insert(gone.digest, gone.chunk_size)
            persistence.log_remove_many([gone.digest])
        node = _fresh_node()
        with NodePersistence(directory) as persistence:
            report = persistence.recover_into(node)
        assert report.entries == 1
        assert keep in node and gone not in node

    def test_torn_container_tail_reported(self, tmp_path):
        directory = str(tmp_path / "node-0")
        fingerprint = synthetic_fingerprint(1)
        with NodePersistence(directory) as persistence:
            persistence.log_insert(fingerprint.digest, fingerprint.chunk_size)
            container = persistence.container.path
        with open(container, "ab") as log:
            log.write(b"\x01torn")
        node = _fresh_node()
        with NodePersistence(directory) as persistence:
            report = persistence.recover_into(node)
        assert report.truncated_bytes == 5
        assert report.entries == 1 and fingerprint in node


# -------------------------------------------------------------- node kill/restart
class TestNodeKillRestart:
    def test_kill_destroys_in_memory_state(self):
        node = _fresh_node()
        fingerprint = synthetic_fingerprint(1)
        assert not node.lookup(fingerprint).is_duplicate
        assert fingerprint in node
        node.kill()
        assert len(node.store) == 0
        assert fingerprint not in node
        assert fingerprint.digest not in node.bloom
        assert node.counters["kills"] == 1

    def test_restart_without_persistence_is_honest_data_loss(self):
        node = _fresh_node()
        node.lookup(synthetic_fingerprint(1))
        node.kill()
        assert node.restart() is None
        assert len(node.store) == 0
        assert node.counters["restarts"] == 1

    def test_restart_recovers_served_fingerprints(self, tmp_path):
        persistence = NodePersistence(str(tmp_path / "node-0"))
        node = _fresh_node(persistence)
        fingerprints = [synthetic_fingerprint(i) for i in range(30)]
        for batch_start in range(0, 30, 10):
            node.lookup_batch(fingerprints[batch_start:batch_start + 10])
        node.kill()
        report = node.restart()
        assert report is not None and report.entries == 30
        assert node.last_recovery is report
        assert all(f in node for f in fingerprints)
        # Verdicts after recovery: every recovered fingerprint is a duplicate.
        assert all(reply.is_duplicate for reply in node.lookup_batch(fingerprints))
        persistence.close()

    def test_construction_warm_start_from_prior_state(self, tmp_path):
        directory = str(tmp_path / "node-0")
        first = _fresh_node(NodePersistence(directory))
        fingerprints = [synthetic_fingerprint(i) for i in range(25)]
        first.lookup_batch(fingerprints)
        assert first.last_recovery is None  # no prior state existed
        first.persistence.close()
        # A new process: same directory, fresh node object.
        second = _fresh_node(NodePersistence(directory))
        assert second.last_recovery is not None
        assert second.last_recovery.entries == 25
        assert all(reply.is_duplicate for reply in second.lookup_batch(fingerprints))
        second.persistence.close()

    def test_snapshot_cadence_triggers_during_serving(self, tmp_path):
        persistence = NodePersistence(str(tmp_path / "node-0"), snapshot_every=16)
        node = _fresh_node(persistence)
        node.lookup_batch([synthetic_fingerprint(i) for i in range(64)])
        assert persistence.snapshots_taken >= 1
        assert node.counters["snapshots"] >= 1
        persistence.close()


# ------------------------------------------------------------ cluster lifecycle
class TestClusterKillRestart:
    def test_kill_restart_roundtrip_with_persistence(self, tmp_path):
        policy = PersistencePolicy(directory=str(tmp_path), snapshot_every=32)
        cluster = SHHCCluster(_cluster_config(), persistence=policy)
        fingerprints = [synthetic_fingerprint(i) for i in range(120)]
        cluster.lookup_batch(fingerprints)
        victim = sorted(cluster.nodes)[0]
        held = len(cluster.nodes[victim].store)
        assert held > 0

        cluster.kill_node(victim)
        assert cluster.is_down(victim)
        assert len(cluster.nodes[victim].store) == 0

        report = cluster.restart_node(victim)
        assert not cluster.is_down(victim)
        assert report is not None and report.entries == held
        # Every previously served fingerprint must still be a duplicate.
        assert all(r.is_duplicate for r in cluster.lookup_batch(fingerprints))
        cluster.close()

    def test_restart_charges_recovery_through_ledger(self, tmp_path):
        policy = PersistencePolicy(directory=str(tmp_path))
        cluster = SHHCCluster(
            _cluster_config(), cost_model=CostModel(), persistence=policy
        )
        cluster.lookup_batch([synthetic_fingerprint(i) for i in range(80)])
        victim = sorted(cluster.nodes)[0]
        cluster.kill_node(victim)
        report = cluster.restart_node(victim)
        assert report is not None and report.charged_seconds > 0
        counters = cluster.ledger.counters
        assert counters["node_recoveries"] == 1
        assert counters["recovery_replayed_entries"] == (
            report.entries + report.replayed
        )
        cluster.close()

    def test_restart_without_persistence_loses_state(self):
        cluster = SHHCCluster(_cluster_config(num_nodes=2, replication_factor=1))
        fingerprints = [synthetic_fingerprint(i) for i in range(40)]
        cluster.lookup_batch(fingerprints)
        victim = sorted(cluster.nodes)[0]
        held = len(cluster.nodes[victim].store)
        assert held > 0
        cluster.kill_node(victim)
        assert cluster.restart_node(victim) is None
        assert len(cluster.nodes[victim].store) == 0

    def test_unknown_node_raises(self, tmp_path):
        cluster = SHHCCluster(_cluster_config())
        with pytest.raises(KeyError):
            cluster.kill_node("nope")
        with pytest.raises(KeyError):
            cluster.restart_node("nope")

    def test_process_restart_warms_whole_cluster(self, tmp_path):
        policy = PersistencePolicy(directory=str(tmp_path), snapshot_every=32)
        fingerprints = [synthetic_fingerprint(i) for i in range(150)]
        first = SHHCCluster(_cluster_config(), persistence=policy)
        first.lookup_batch(fingerprints)
        sizes = {name: len(node.store) for name, node in first.nodes.items()}
        first.close()

        second = SHHCCluster(_cluster_config(), persistence=policy)
        for name, node in second.nodes.items():
            assert len(node.store) == sizes[name]
            assert node.last_recovery is not None
        assert all(r.is_duplicate for r in second.lookup_batch(fingerprints))
        second.close()
