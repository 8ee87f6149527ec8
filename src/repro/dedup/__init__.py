"""Deduplication substrate: chunking, fingerprinting, indexes, directory archives."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".archive": ("ArchiveStats", "DirectoryArchiver", "FileEntry", "Snapshot"),
    ".chunking": ("Chunk", "Chunker", "ContentDefinedChunker", "FixedSizeChunker"),
    ".fingerprint": ("FINGERPRINT_BYTES", "Fingerprint", "fingerprint_data",
                     "synthetic_fingerprint"),
    ".gear": ("GEAR_TABLE", "GearChunker", "gear_cut", "gear_threshold"),
    ".index": ("ChunkIndex", "ChunkLocation", "InMemoryChunkIndex", "LookupResult"),
    ".rabin": ("RabinRollingHash",),
    ".segment": ("Segment", "interleave_streams", "locality_score", "segment_stream"),
})
