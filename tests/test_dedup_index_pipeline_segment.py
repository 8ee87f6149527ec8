"""Tests for the chunk index, the client-side dedup loop and segmenting helpers."""

from __future__ import annotations

import os

import pytest

from repro.dedup.fingerprint import synthetic_fingerprint
from repro.dedup.index import InMemoryChunkIndex
from repro.dedup.archive import DirectoryArchiver
from repro.dedup.chunking import FixedSizeChunker
from repro.dedup.segment import interleave_streams, locality_score, segment_stream
from repro.storage.object_store import CloudObjectStore


class TestInMemoryChunkIndex:
    def test_first_lookup_is_unique_then_duplicate(self):
        index = InMemoryChunkIndex()
        fingerprint = synthetic_fingerprint(1)
        first = index.lookup(fingerprint)
        second = index.lookup(fingerprint)
        assert first.is_duplicate is False
        assert second.is_duplicate is True
        assert len(index) == 1

    def test_contains_is_readonly(self):
        index = InMemoryChunkIndex()
        fingerprint = synthetic_fingerprint(2)
        assert fingerprint not in index
        assert len(index) == 0

    def test_batch_lookup_preserves_order(self):
        index = InMemoryChunkIndex()
        fingerprints = [synthetic_fingerprint(i % 3) for i in range(9)]
        results = index.lookup_batch(fingerprints)
        assert [r.fingerprint for r in results] == fingerprints
        assert [r.is_duplicate for r in results[:3]] == [False, False, False]
        assert all(r.is_duplicate for r in results[3:])

    def test_duplicate_ratio(self):
        index = InMemoryChunkIndex()
        for i in range(10):
            index.lookup(synthetic_fingerprint(i % 5))
        assert index.duplicate_ratio() == pytest.approx(0.5)

    def test_locations_are_distinct_per_chunk(self):
        index = InMemoryChunkIndex()
        first = index.lookup(synthetic_fingerprint(1, 100))
        second = index.lookup(synthetic_fingerprint(2, 100))
        assert first.location != second.location


class TestDedupPipeline:
    """The client-side chunk -> fingerprint -> lookup -> store loop.

    These assertions were written against ``DedupPipeline``; its backup and
    restore were ``DirectoryArchiver._store_file`` / ``restore_file``, which
    they now drive through ``backup_files``.
    """

    def _archiver(self, chunk_size=64):
        return DirectoryArchiver(
            InMemoryChunkIndex(),
            CloudObjectStore(),
            FixedSizeChunker(chunk_size),
        )

    def test_backup_and_restore_roundtrip(self):
        archiver = self._archiver()
        data = os.urandom(5000)
        archiver.backup_files({"doc": data}, "s1")
        assert archiver.restore_file("s1", "doc") == data

    def test_identical_second_backup_stores_nothing_new(self):
        archiver = self._archiver()
        data = os.urandom(4096)
        first = archiver.backup_files({"doc": data}, "first")
        physical_after_first = archiver.object_store.total_bytes()
        second = archiver.backup_files({"doc": data}, "second")
        assert archiver.object_store.total_bytes() == physical_after_first
        assert second.bytes_uploaded == 0
        assert archiver.restore_file("second", "doc") == data
        logical = first.bytes_scanned + second.bytes_scanned
        assert logical / physical_after_first == pytest.approx(2.0)

    def test_partial_overlap_uploads_only_new_chunks(self):
        archiver = self._archiver(chunk_size=64)
        base = os.urandom(64 * 10)
        modified = base[: 64 * 5] + os.urandom(64 * 5)
        archiver.backup_files({"doc": base}, "v1")
        stats = archiver.backup_files({"doc": modified}, "v2")
        assert stats.chunks_uploaded == 5
        assert archiver.restore_file("v2", "doc") == modified

    def test_space_savings(self):
        archiver = self._archiver()
        data = os.urandom(2048)
        first = archiver.backup_files({"a": data}, "a")
        second = archiver.backup_files({"b": data}, "b")
        assert first.dedup_savings == 0.0 and second.dedup_savings == 1.0
        uploaded = first.bytes_uploaded + second.bytes_uploaded
        scanned = first.bytes_scanned + second.bytes_scanned
        assert 1.0 - uploaded / scanned == pytest.approx(0.5)

    def test_restore_unknown_name_raises(self):
        archiver = self._archiver()
        with pytest.raises(KeyError):
            archiver.restore_file("ghost", "doc")
        archiver.backup_files({"doc": b"data"}, "s1")
        with pytest.raises(KeyError):
            archiver.restore_file("s1", "ghost")

    def test_manifest_accounting(self):
        archiver = self._archiver(chunk_size=100)
        archiver.backup_files({"doc": b"z" * 1050}, "s1")
        entry = archiver.snapshots["s1"].files["doc"]
        assert len(entry.fingerprints) == 11
        assert sum(fp.chunk_size for fp in entry.fingerprints) == entry.size == 1050

    def test_reference_counts_protect_shared_chunks(self):
        archiver = self._archiver()
        data = os.urandom(1024)
        archiver.backup_files({"a": data}, "a")
        archiver.backup_files({"b": data}, "b")
        digest = archiver.snapshots["a"].files["a"].fingerprints[0].digest
        assert archiver.object_store.reference_count(digest) == 2


class TestSegmenting:
    def test_segment_stream_sizes(self):
        fingerprints = [synthetic_fingerprint(i) for i in range(10)]
        segments = list(segment_stream(fingerprints, segment_size=4))
        assert [len(segment) for segment in segments] == [4, 4, 2]
        assert [segment.sequence_number for segment in segments] == [0, 1, 2]
        assert segments[0].fingerprints == fingerprints[:4]

    def test_segment_stream_validation(self):
        with pytest.raises(ValueError):
            list(segment_stream([], segment_size=0))

    def test_interleave_round_robin(self):
        a = [synthetic_fingerprint(i) for i in range(4)]
        b = [synthetic_fingerprint(100 + i) for i in range(2)]
        merged = interleave_streams([a, b], granularity=1)
        assert merged[0] == a[0] and merged[1] == b[0]
        assert len(merged) == 6
        assert set(merged) == set(a) | set(b)

    def test_interleave_granularity_preserves_runs(self):
        a = [synthetic_fingerprint(i) for i in range(6)]
        b = [synthetic_fingerprint(100 + i) for i in range(6)]
        merged = interleave_streams([a, b], granularity=3)
        assert merged[:3] == a[:3]
        assert merged[3:6] == b[:3]

    def test_interleave_validation(self):
        with pytest.raises(ValueError):
            interleave_streams([[synthetic_fingerprint(1)]], granularity=0)

    def test_locality_score_tight_duplicates(self):
        fingerprints = []
        for i in range(100):
            fingerprints.append(synthetic_fingerprint(i))
            fingerprints.append(synthetic_fingerprint(i))  # immediate repeat
        assert locality_score(fingerprints, window=4) == pytest.approx(1.0)

    def test_locality_score_distant_duplicates(self):
        first_pass = [synthetic_fingerprint(i) for i in range(500)]
        fingerprints = first_pass + first_pass  # repeats 500 apart
        assert locality_score(fingerprints, window=10) == 0.0

    def test_locality_score_no_duplicates(self):
        fingerprints = [synthetic_fingerprint(i) for i in range(50)]
        assert locality_score(fingerprints) == 0.0

    def test_locality_score_validation(self):
        with pytest.raises(ValueError):
            locality_score([], window=0)
