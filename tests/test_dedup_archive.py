"""Tests for the directory archiver (file-level backup and restore)."""

from __future__ import annotations

import os

import pytest

from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.dedup.archive import ArchiveStats, DirectoryArchiver, Snapshot
from repro.dedup.chunking import ContentDefinedChunker, FixedSizeChunker
from repro.dedup.fingerprint import fingerprint_data
from repro.dedup.index import ChunkIndex, InMemoryChunkIndex
from repro.storage.object_store import CloudObjectStore


def make_archiver(catalog_path=None, chunker=None) -> DirectoryArchiver:
    return DirectoryArchiver(
        index=InMemoryChunkIndex(),
        object_store=CloudObjectStore(),
        chunker=chunker if chunker is not None else FixedSizeChunker(256),
        catalog_path=catalog_path,
    )


def write_tree(root, files):
    for path, data in files.items():
        destination = os.path.join(root, path)
        os.makedirs(os.path.dirname(destination) or str(root), exist_ok=True)
        with open(destination, "wb") as handle:
            handle.write(data)


class TestBackupRestore:
    def test_directory_roundtrip(self, tmp_path):
        source = tmp_path / "source"
        files = {
            "docs/report.txt": os.urandom(3000),
            "docs/notes.md": b"hello world" * 50,
            "bin/data.bin": os.urandom(1024),
        }
        write_tree(str(source), files)
        archiver = make_archiver()
        stats = archiver.backup_directory(str(source), "snap-1")
        assert stats.files_scanned == 3
        assert stats.bytes_scanned == sum(len(data) for data in files.values())

        target = tmp_path / "restored"
        written = archiver.restore_directory("snap-1", str(target))
        assert written == 3
        for path, data in files.items():
            with open(target / path, "rb") as handle:
                assert handle.read() == data

    def test_restore_single_file(self, tmp_path):
        files = {"a.bin": os.urandom(2000)}
        archiver = make_archiver()
        archiver.backup_files(files, "snap-1")
        assert archiver.restore_file("snap-1", "a.bin") == files["a.bin"]

    def test_second_identical_snapshot_uploads_nothing(self):
        files = {"a.bin": os.urandom(4096), "b.bin": os.urandom(4096)}
        archiver = make_archiver()
        first = archiver.backup_files(files, "day-1")
        second = archiver.backup_files(files, "day-2")
        assert first.chunks_uploaded > 0
        assert second.chunks_uploaded == 0
        assert second.dedup_savings == pytest.approx(1.0)

    def test_modified_file_uploads_only_changed_chunks(self):
        base = os.urandom(256 * 10)
        archiver = make_archiver()
        archiver.backup_files({"image.bin": base}, "v1")
        modified = base[: 256 * 9] + os.urandom(256)
        stats = archiver.backup_files({"image.bin": modified}, "v2")
        assert stats.chunks_uploaded == 1
        assert archiver.restore_file("v2", "image.bin") == modified

    def test_content_defined_chunking_survives_insertion(self):
        base = os.urandom(50_000)
        archiver = make_archiver(chunker=ContentDefinedChunker(average_size=1024))
        archiver.backup_files({"doc": base}, "v1")
        edited = base[:10_000] + b"INSERTED" + base[10_000:]
        stats = archiver.backup_files({"doc": edited}, "v2")
        # Only the chunks around the insertion point change.
        assert stats.chunks_uploaded <= 4
        assert archiver.restore_file("v2", "doc") == edited

    def test_duplicate_snapshot_id_rejected(self):
        archiver = make_archiver()
        archiver.backup_files({"a": b"data"}, "snap")
        with pytest.raises(ValueError):
            archiver.backup_files({"a": b"data"}, "snap")

    def test_backup_missing_directory_raises(self, tmp_path):
        archiver = make_archiver()
        with pytest.raises(NotADirectoryError):
            archiver.backup_directory(str(tmp_path / "missing"), "snap")

    def test_restore_unknown_snapshot_or_file(self):
        archiver = make_archiver()
        archiver.backup_files({"a": b"data"}, "snap")
        with pytest.raises(KeyError):
            archiver.restore_file("ghost", "a")
        with pytest.raises(KeyError):
            archiver.restore_file("snap", "missing")

    def test_works_with_shhc_cluster_as_index(self, tmp_path):
        cluster = SHHCCluster(
            ClusterConfig(
                num_nodes=4,
                node=HashNodeConfig(ram_cache_entries=1024, bloom_expected_items=50_000),
            )
        )
        archiver = DirectoryArchiver(cluster, CloudObjectStore(), FixedSizeChunker(512))
        data = os.urandom(512 * 32)
        archiver.backup_files({"disk.img": data}, "laptop-day1")
        archiver.backup_files({"disk.img": data}, "laptop-day2")
        assert archiver.restore_file("laptop-day2", "disk.img") == data
        assert len(cluster) == 32


def small_cluster(num_nodes=2, replication=1) -> SHHCCluster:
    return SHHCCluster(ClusterConfig(
        num_nodes=num_nodes,
        replication_factor=replication,
        node=HashNodeConfig(ram_cache_entries=512, bloom_expected_items=50_000, ssd_buckets=1 << 10),
    ))


class CountingIndex(ChunkIndex):
    """A chunk index that records every call the archiver makes to it."""

    def __init__(self, index: ChunkIndex) -> None:
        self.index = index
        self.calls = []

    def lookup(self, fingerprint):
        self.calls.append(("lookup", [fingerprint]))
        return self.index.lookup(fingerprint)

    def lookup_batch(self, fingerprints):
        fingerprints = list(fingerprints)
        self.calls.append(("lookup_batch", fingerprints))
        return self.index.lookup_batch(fingerprints)

    def __len__(self):
        return len(self.index)

    def __contains__(self, fingerprint):
        return fingerprint in self.index


class RecordingStore(CloudObjectStore):
    """An object store that logs its ``put`` / ``add_reference`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.log = []

    def put(self, key, data):
        self.log.append(("put", key, bytes(data)))
        return super().put(key, data)

    def add_reference(self, key):
        self.log.append(("ref", key))
        return super().add_reference(key)


def per_chunk_backup(index, store, chunker, files):
    """The archiver's backup as one index lookup per chunk, for reference."""
    stats, entries = ArchiveStats(), {}
    for path in sorted(files):
        data = files[path]
        stats.bytes_scanned += len(data)
        entries[path] = []
        for chunk in chunker.chunk(data):
            fingerprint = fingerprint_data(chunk.data)
            entries[path].append(fingerprint)
            stats.chunks_seen += 1
            if index.lookup(fingerprint).is_duplicate:
                store.add_reference(fingerprint.digest)
            else:
                stats.chunks_uploaded += 1
                stats.bytes_uploaded += fingerprint.chunk_size
                store.put(fingerprint.digest, chunk.data)
        stats.files_scanned += 1
    return stats, entries


class TestArchiverOverTheCluster:
    """The archiver is the library's backup path: chunk, look up, upload
    what is new, over an ``SHHCCluster``."""

    def test_only_unique_chunks_are_uploaded(self):
        store = CloudObjectStore()
        archiver = DirectoryArchiver(small_cluster(), store, FixedSizeChunker(128))
        data = os.urandom(128 * 20)
        first = archiver.backup_files({"a": data}, "day-1")
        second = archiver.backup_files({"a": data}, "day-2")
        assert (first.chunks_seen, first.chunks_uploaded) == (20, 20)
        assert (second.chunks_seen, second.chunks_uploaded) == (20, 0)
        assert store.total_bytes() == len(data)

    def test_uploaded_chunks_match_their_fingerprints(self):
        store = CloudObjectStore(verify_content=True)
        archiver = DirectoryArchiver(small_cluster(), store, FixedSizeChunker(64))
        data = os.urandom(640) + os.urandom(64) * 3  # 13 chunks, 11 distinct
        assert archiver.backup_files({"a": data}, "day-1").chunks_uploaded == 11
        for chunk_start in range(0, len(data), 64):
            digest = fingerprint_data(data[chunk_start:chunk_start + 64]).digest
            assert store.get(digest) == data[chunk_start:chunk_start + 64]

    def test_two_sources_share_one_dedup_domain(self):
        cluster = small_cluster(num_nodes=4)
        store = CloudObjectStore()
        archiver = DirectoryArchiver(cluster, store)
        data = os.urandom(8192 * 8)
        alice = archiver.backup_files({"alice/disk": data}, "alice")
        bob = archiver.backup_files({"bob/disk": data}, "bob")
        assert (alice.chunks_uploaded, bob.chunks_uploaded) == (8, 0)
        assert bob.dedup_savings == pytest.approx(1.0)
        assert len(cluster) == 8
        assert store.total_bytes() == len(data)

    def test_each_file_is_one_index_batch(self):
        """One ``lookup_batch`` per file, in chunk order, and no per-chunk
        ``lookup``: a file repeating its own chunk still uploads it once."""
        index = CountingIndex(InMemoryChunkIndex())
        archiver = DirectoryArchiver(index, CloudObjectStore(), FixedSizeChunker(256))
        block = os.urandom(256)
        files = {"a": block * 3 + os.urandom(100), "b": os.urandom(1000), "empty": b""}
        stats = archiver.backup_files(files, "snap")
        snapshot = archiver.snapshots["snap"]
        assert index.calls == [("lookup_batch", snapshot.files[path].fingerprints)
                               for path in sorted(files)]
        assert [len(fingerprints) for _kind, fingerprints in index.calls] == [4, 4, 0]
        assert (stats.chunks_seen, stats.chunks_uploaded) == (8, 6)

    @staticmethod
    def assert_batched_matches_per_chunk(days, chunker, batched, looped, between_days=None):
        """Back ``days`` up through the archiver over ``batched`` and through
        :func:`per_chunk_backup` over its twin ``looped``; stats, snapshot
        entries, object-store calls and index sizes must be equal.
        ``between_days(day, cluster)`` runs on both twins before each day."""
        store, reference_store = RecordingStore(), RecordingStore()
        archiver = DirectoryArchiver(batched, store, chunker)
        for day, files in enumerate(days):
            if between_days is not None:
                between_days(day, batched)
                between_days(day, looped)
            stats = archiver.backup_files(files, f"day-{day}")
            expected_stats, expected_entries = per_chunk_backup(
                looped, reference_store, chunker, files)
            assert stats == expected_stats
            assert {path: entry.fingerprints
                    for path, entry in archiver.snapshots[f"day-{day}"].files.items()
                    } == expected_entries
        assert store.log == reference_store.log
        assert len(batched) == len(looped)

    @pytest.mark.parametrize("chunker", [FixedSizeChunker(512), ContentDefinedChunker(256)],
                             ids=["fixed", "content-defined"])
    @pytest.mark.parametrize("replication", [1, 2])
    def test_batched_files_store_what_per_chunk_lookups_store(self, replication, chunker):
        """Verdicts, object-store calls, snapshot entries and stats equal a
        per-chunk loop's over a twin cluster, repeats across and within
        files included."""
        shared, rng_block = os.urandom(4096), os.urandom(512)
        days = [
            {"a": shared + os.urandom(3000), "b": rng_block * 4 + shared, "c": b""},
            {"a": shared + os.urandom(3000), "b": rng_block * 2, "d": shared[:2048]},
        ]
        self.assert_batched_matches_per_chunk(
            days, chunker, small_cluster(3, replication), small_cluster(3, replication))

    @pytest.mark.parametrize("replication", [2, 3])
    def test_batched_files_match_per_chunk_lookups_across_a_node_outage(self, replication):
        """A node down for one day and back the next: the batched backup
        fails over and read-repairs exactly as per-chunk lookups do, so the
        same chunks are uploaded and the twin indexes end the same size."""
        shared = os.urandom(4096)
        day_1 = {"a": shared + os.urandom(4096), "b": os.urandom(2048)}
        days = [{"a": shared}, day_1, dict(day_1, c=os.urandom(1024))]

        def outage(day, cluster):
            victim = cluster.node_names[1]
            if day == 1:
                cluster.mark_down(victim)
            elif day == 2:
                cluster.mark_up(victim)

        batched, looped = small_cluster(3, replication), small_cluster(3, replication)
        self.assert_batched_matches_per_chunk(
            days, FixedSizeChunker(512), batched, looped, outage)
        assert batched.read_repairs == looped.read_repairs > 0


class TestSnapshotsAndDiff:
    def test_diff_classifies_changes(self):
        archiver = make_archiver()
        archiver.backup_files(
            {"keep.txt": b"same", "edit.txt": b"x" * 600, "drop.txt": b"bye"}, "v1"
        )
        archiver.backup_files(
            {"keep.txt": b"same", "edit.txt": b"y" * 600, "new.txt": b"hello"}, "v2"
        )
        diff = archiver.diff("v1", "v2")
        assert diff["added"] == ["new.txt"]
        assert diff["removed"] == ["drop.txt"]
        assert diff["modified"] == ["edit.txt"]
        assert diff["unchanged"] == ["keep.txt"]

    def test_list_snapshots(self):
        archiver = make_archiver()
        archiver.backup_files({"a": b"1"}, "b-snap")
        archiver.backup_files({"a": b"1"}, "a-snap")
        assert archiver.list_snapshots() == ["a-snap", "b-snap"]

    def test_snapshot_json_roundtrip(self):
        archiver = make_archiver()
        archiver.backup_files({"dir/a.bin": os.urandom(1000)}, "snap")
        snapshot = archiver.snapshots["snap"]
        restored = Snapshot.from_json(snapshot.to_json())
        assert restored.snapshot_id == "snap"
        assert restored.files.keys() == snapshot.files.keys()
        original_entry = snapshot.files["dir/a.bin"]
        restored_entry = restored.files["dir/a.bin"]
        assert restored_entry.fingerprints == original_entry.fingerprints

    def test_catalog_persists_across_instances(self, tmp_path):
        catalog = str(tmp_path / "catalog.json")
        store = CloudObjectStore()
        first = DirectoryArchiver(InMemoryChunkIndex(), store, FixedSizeChunker(256), catalog)
        data = os.urandom(2000)
        first.backup_files({"a.bin": data}, "snap-1")

        # A new archiver instance sharing the store can restore from the
        # persisted catalogue without re-backing anything up.
        second = DirectoryArchiver(InMemoryChunkIndex(), store, FixedSizeChunker(256), catalog)
        assert second.list_snapshots() == ["snap-1"]
        assert second.restore_file("snap-1", "a.bin") == data

    def test_catalog_records_chunker_and_warns_on_mismatch(self, tmp_path):
        import json
        import warnings

        catalog = str(tmp_path / "catalog.json")
        store = CloudObjectStore()
        first = DirectoryArchiver(
            InMemoryChunkIndex(), store, ContentDefinedChunker(average_size=1024), catalog
        )
        first.backup_files({"a.bin": os.urandom(5000)}, "snap-1")
        with open(catalog) as handle:
            recorded = json.load(handle)["chunking"]
        assert recorded["strategy"] == "cdc" and recorded["engine"] == "gear"

        # Matching chunker: silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matching = DirectoryArchiver(
                InMemoryChunkIndex(), store, ContentDefinedChunker(average_size=1024), catalog
            )
        assert matching.catalog_chunking == recorded

        # Different boundary engine: dedup against the existing store would
        # silently break, so loading must warn.
        with pytest.warns(UserWarning, match="chunker mismatch"):
            DirectoryArchiver(
                InMemoryChunkIndex(),
                store,
                ContentDefinedChunker(average_size=1024, engine="rabin"),
                catalog,
            )

    def test_rabin_window_mismatch_warns(self, tmp_path):
        import warnings

        catalog = str(tmp_path / "catalog.json")
        store = CloudObjectStore()
        first = DirectoryArchiver(
            InMemoryChunkIndex(),
            store,
            ContentDefinedChunker(average_size=1024, engine="rabin", window_size=48),
            catalog,
        )
        first.backup_files({"a.bin": os.urandom(5000)}, "snap-1")
        with pytest.warns(UserWarning, match="chunker mismatch"):
            DirectoryArchiver(
                InMemoryChunkIndex(),
                store,
                ContentDefinedChunker(average_size=1024, engine="rabin", window_size=32),
                catalog,
            )
        # Gear ignores window_size, so differing windows must stay silent.
        gear_catalog = str(tmp_path / "gear.json")
        gear = DirectoryArchiver(
            InMemoryChunkIndex(), store,
            ContentDefinedChunker(average_size=1024, window_size=48), gear_catalog,
        )
        gear.backup_files({"a.bin": os.urandom(2000)}, "snap-1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DirectoryArchiver(
                InMemoryChunkIndex(), store,
                ContentDefinedChunker(average_size=1024, window_size=32), gear_catalog,
            )

    def test_catalog_without_chunking_record_loads_silently(self, tmp_path):
        import json
        import warnings

        catalog = str(tmp_path / "catalog.json")
        # Simulate a pre-pinning catalogue (no "chunking" key).
        with open(catalog, "w") as handle:
            json.dump({"snapshots": []}, handle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            archiver = make_archiver(catalog_path=catalog)
        assert archiver.catalog_chunking is None
