"""Deduplication substrate: chunking, fingerprinting, indexes, directory archives."""

from .archive import ArchiveStats, DirectoryArchiver, FileEntry, Snapshot
from .chunking import Chunk, Chunker, ContentDefinedChunker, FixedSizeChunker
from .fingerprint import (
    FINGERPRINT_BYTES,
    Fingerprint,
    fingerprint_data,
    synthetic_fingerprint,
)
from .gear import GEAR_TABLE, GearChunker, gear_cut, gear_threshold
from .index import ChunkIndex, ChunkLocation, InMemoryChunkIndex, LookupResult
from .rabin import RabinRollingHash
from .segment import Segment, interleave_streams, locality_score, segment_stream

__all__ = [
    "ArchiveStats",
    "DirectoryArchiver",
    "FileEntry",
    "Snapshot",
    "Chunk",
    "Chunker",
    "ContentDefinedChunker",
    "FixedSizeChunker",
    "FINGERPRINT_BYTES",
    "Fingerprint",
    "fingerprint_data",
    "synthetic_fingerprint",
    "GEAR_TABLE",
    "GearChunker",
    "gear_cut",
    "gear_threshold",
    "ChunkIndex",
    "ChunkLocation",
    "InMemoryChunkIndex",
    "LookupResult",
    "RabinRollingHash",
    "Segment",
    "interleave_streams",
    "locality_score",
    "segment_stream",
]
