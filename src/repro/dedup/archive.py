"""Directory-tree backup and restore: the client-side dedup loop.

The paper's Client Application "collects changes in local data" and backs up
whole devices; this module provides that file-level workflow for the library:
walk a directory, deduplicate every file through a chunk index (the SHHC
cluster or any baseline), store unique chunks in the object store, and keep a
JSON-serialisable snapshot catalogue so any snapshot can be restored later or
compared against the next one.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..storage.object_store import CloudObjectStore
from .chunking import Chunker, ContentDefinedChunker, FixedSizeChunker
from .fingerprint import Fingerprint, fingerprint_data
from .index import ChunkIndex

__all__ = ["FileEntry", "Snapshot", "ArchiveStats", "DirectoryArchiver", "describe_chunker"]


def describe_chunker(chunker: Chunker) -> dict:
    """A JSON-serialisable description of a chunker's boundary parameters.

    Two archivers whose descriptions differ will generally produce different
    chunk boundaries -- and therefore different fingerprints -- for the same
    data, which silently destroys deduplication against an existing chunk
    store.  The description is persisted in the snapshot catalogue so the
    mismatch can be detected (and the CLI can adopt the recorded engine).
    """
    if isinstance(chunker, ContentDefinedChunker):
        description = {
            "strategy": "cdc",
            "engine": chunker.engine,
            "average_size": chunker.average_size,
            "min_size": chunker.min_size,
            "max_size": chunker.max_size,
        }
        if chunker.engine == "rabin":
            # The rolling-hash window changes rabin boundaries; gear ignores
            # it, so recording it there would create spurious mismatches.
            description["window_size"] = chunker.window_size
        return description
    if isinstance(chunker, FixedSizeChunker):
        return {"strategy": "fixed", "chunk_size": chunker.chunk_size}
    return {"strategy": type(chunker).__name__}


@dataclass
class FileEntry:
    """One file inside a snapshot: its path and the chunks composing it."""

    path: str
    size: int
    fingerprints: List[Fingerprint] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "size": self.size,
            "chunks": [[fp.digest.hex(), fp.chunk_size] for fp in self.fingerprints],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FileEntry":
        return cls(
            path=payload["path"],
            size=payload["size"],
            fingerprints=[
                Fingerprint(digest=bytes.fromhex(digest), chunk_size=size)
                for digest, size in payload["chunks"]
            ],
        )


@dataclass
class Snapshot:
    """A point-in-time backup of a directory tree."""

    snapshot_id: str
    files: Dict[str, FileEntry] = field(default_factory=dict)

    @property
    def file_count(self) -> int:
        return len(self.files)

    @property
    def logical_bytes(self) -> int:
        return sum(entry.size for entry in self.files.values())

    def to_json(self) -> dict:
        return {
            "snapshot_id": self.snapshot_id,
            "files": [entry.to_json() for entry in self.files.values()],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Snapshot":
        snapshot = cls(snapshot_id=payload["snapshot_id"])
        for entry_payload in payload["files"]:
            entry = FileEntry.from_json(entry_payload)
            snapshot.files[entry.path] = entry
        return snapshot


@dataclass
class ArchiveStats:
    """Per-snapshot accounting of what was scanned, uploaded and skipped."""

    files_scanned: int = 0
    chunks_seen: int = 0
    chunks_uploaded: int = 0
    bytes_scanned: int = 0
    bytes_uploaded: int = 0

    @property
    def dedup_savings(self) -> float:
        """Fraction of scanned bytes that did not need uploading."""
        if self.bytes_scanned == 0:
            return 0.0
        return 1.0 - self.bytes_uploaded / self.bytes_scanned


class DirectoryArchiver:
    """Back up and restore directory trees through a chunk index.

    Parameters
    ----------
    index:
        Any :class:`~repro.dedup.index.ChunkIndex` (the SHHC cluster, a
        baseline, or the in-memory oracle).
    object_store:
        Where unique chunk payloads are kept.
    chunker:
        Chunking strategy; content-defined chunking keeps chunk boundaries
        stable across in-place edits, fixed-size is faster.
    catalog_path:
        Optional file to persist the snapshot catalogue (JSON).  When given,
        existing snapshots are loaded at construction and every backup is
        saved back to it.
    """

    def __init__(
        self,
        index: ChunkIndex,
        object_store: CloudObjectStore,
        chunker: Optional[Chunker] = None,
        catalog_path: Optional[str] = None,
    ) -> None:
        self.index = index
        self.object_store = object_store
        self.chunker = chunker if chunker is not None else FixedSizeChunker(8192)
        self.catalog_path = catalog_path
        self.snapshots: Dict[str, Snapshot] = {}
        self.stats_by_snapshot: Dict[str, ArchiveStats] = {}
        #: Chunker description recorded in the loaded catalogue (None when no
        #: catalogue was loaded or it predates chunker pinning).
        self.catalog_chunking: Optional[dict] = None
        if catalog_path and os.path.exists(catalog_path):
            self._load_catalog()

    # ------------------------------------------------------------------ backup
    def backup_directory(self, root: str, snapshot_id: str) -> ArchiveStats:
        """Create a snapshot of every regular file under ``root``."""
        if snapshot_id in self.snapshots:
            raise ValueError(f"snapshot {snapshot_id!r} already exists")
        root = os.path.abspath(root)
        if not os.path.isdir(root):
            raise NotADirectoryError(root)
        snapshot = Snapshot(snapshot_id=snapshot_id)
        stats = ArchiveStats()
        for relative_path, absolute_path in self._walk(root):
            with open(absolute_path, "rb") as handle:
                data = handle.read()
            entry = self._store_file(relative_path, data, stats)
            snapshot.files[relative_path] = entry
            stats.files_scanned += 1
        self.snapshots[snapshot_id] = snapshot
        self.stats_by_snapshot[snapshot_id] = stats
        if self.catalog_path:
            self._save_catalog()
        return stats

    def backup_files(self, files: Dict[str, bytes], snapshot_id: str) -> ArchiveStats:
        """Create a snapshot from an in-memory ``{path: data}`` mapping."""
        if snapshot_id in self.snapshots:
            raise ValueError(f"snapshot {snapshot_id!r} already exists")
        snapshot = Snapshot(snapshot_id=snapshot_id)
        stats = ArchiveStats()
        for path in sorted(files):
            entry = self._store_file(path, files[path], stats)
            snapshot.files[path] = entry
            stats.files_scanned += 1
        self.snapshots[snapshot_id] = snapshot
        self.stats_by_snapshot[snapshot_id] = stats
        if self.catalog_path:
            self._save_catalog()
        return stats

    def _store_file(self, path: str, data: bytes, stats: ArchiveStats) -> FileEntry:
        """Chunk one file and look its chunks up in one index batch.

        The batch is in chunk order, so a chunk repeated within the file is
        new only at its first occurrence, as with one lookup per chunk.
        """
        offsets: List[int] = []
        fingerprints: List[Fingerprint] = []
        for chunk in self.chunker.chunk(data):
            offsets.append(chunk.offset)
            fingerprints.append(fingerprint_data(chunk.data))
        entry = FileEntry(path=path, size=len(data), fingerprints=fingerprints)
        stats.bytes_scanned += len(data)
        stats.chunks_seen += len(fingerprints)
        store = self.object_store
        for fingerprint, offset, result in zip(
            fingerprints, offsets, self.index.lookup_batch(fingerprints)
        ):
            if result.is_duplicate:
                store.add_reference(fingerprint.digest)
            else:
                size = fingerprint.chunk_size
                stats.chunks_uploaded += 1
                stats.bytes_uploaded += size
                # Only a new chunk's payload is copied out of the file.
                store.put(fingerprint.digest, data[offset:offset + size])
        return entry

    # ------------------------------------------------------------------ restore
    def restore_file(self, snapshot_id: str, path: str) -> bytes:
        """Reassemble one file from a snapshot."""
        snapshot = self._snapshot(snapshot_id)
        if path not in snapshot.files:
            raise KeyError(f"snapshot {snapshot_id!r} has no file {path!r}")
        parts: List[bytes] = []
        for fingerprint in snapshot.files[path].fingerprints:
            data = self.object_store.get(fingerprint.digest)
            if data is None:
                raise RuntimeError(
                    f"chunk {fingerprint.hex[:12]} of {path!r} missing from the object store"
                )
            parts.append(data)
        return b"".join(parts)

    def restore_directory(self, snapshot_id: str, target: str) -> int:
        """Materialise a whole snapshot under ``target``; returns files written."""
        snapshot = self._snapshot(snapshot_id)
        written = 0
        for path in snapshot.files:
            destination = os.path.join(target, path)
            os.makedirs(os.path.dirname(destination) or target, exist_ok=True)
            with open(destination, "wb") as handle:
                handle.write(self.restore_file(snapshot_id, path))
            written += 1
        return written

    # ------------------------------------------------------------------ inspection
    def diff(self, old_snapshot_id: str, new_snapshot_id: str) -> Dict[str, List[str]]:
        """Paths added, removed, modified and unchanged between two snapshots."""
        old = self._snapshot(old_snapshot_id)
        new = self._snapshot(new_snapshot_id)
        old_paths, new_paths = set(old.files), set(new.files)
        added = sorted(new_paths - old_paths)
        removed = sorted(old_paths - new_paths)
        modified, unchanged = [], []
        for path in sorted(old_paths & new_paths):
            old_digests = [fp.digest for fp in old.files[path].fingerprints]
            new_digests = [fp.digest for fp in new.files[path].fingerprints]
            (modified if old_digests != new_digests else unchanged).append(path)
        return {"added": added, "removed": removed, "modified": modified, "unchanged": unchanged}

    def list_snapshots(self) -> List[str]:
        return sorted(self.snapshots)

    def _snapshot(self, snapshot_id: str) -> Snapshot:
        if snapshot_id not in self.snapshots:
            raise KeyError(f"unknown snapshot {snapshot_id!r}")
        return self.snapshots[snapshot_id]

    @staticmethod
    def _walk(root: str) -> List[Tuple[str, str]]:
        discovered: List[Tuple[str, str]] = []
        for directory, _subdirs, filenames in os.walk(root):
            for filename in sorted(filenames):
                absolute = os.path.join(directory, filename)
                if os.path.isfile(absolute):
                    discovered.append((os.path.relpath(absolute, root), absolute))
        discovered.sort()
        return discovered

    # ------------------------------------------------------------------ catalogue persistence
    def _save_catalog(self) -> None:
        assert self.catalog_path is not None
        payload = {
            "chunking": describe_chunker(self.chunker),
            "snapshots": [snapshot.to_json() for snapshot in self.snapshots.values()],
        }
        directory = os.path.dirname(os.path.abspath(self.catalog_path))
        os.makedirs(directory, exist_ok=True)
        temp_path = self.catalog_path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(temp_path, self.catalog_path)

    def _load_catalog(self) -> None:
        assert self.catalog_path is not None
        with open(self.catalog_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        self.catalog_chunking = payload.get("chunking")
        if self.catalog_chunking is not None:
            current = describe_chunker(self.chunker)
            if current != self.catalog_chunking:
                warnings.warn(
                    "chunker mismatch: catalog was written with "
                    f"{self.catalog_chunking}, this archiver uses {current}; "
                    "new backups will not deduplicate against existing chunks",
                    stacklevel=2,
                )
        for snapshot_payload in payload.get("snapshots", []):
            snapshot = Snapshot.from_json(snapshot_payload)
            self.snapshots[snapshot.snapshot_id] = snapshot
