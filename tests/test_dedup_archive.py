"""Tests for the directory archiver (file-level backup and restore)."""

from __future__ import annotations

import os

import pytest

from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.dedup.archive import DirectoryArchiver, Snapshot
from repro.dedup.chunking import ContentDefinedChunker, FixedSizeChunker
from repro.dedup.index import InMemoryChunkIndex
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
