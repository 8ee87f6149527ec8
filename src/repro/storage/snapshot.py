"""Atomic, checksummed snapshot files with mmap'd loads.

A snapshot is one self-describing file: a fixed header, a small JSON
metadata block, and an opaque binary payload protected by CRC32.  Writers
stage the whole file under a temporary name, ``fsync`` it, and atomically
rename it into place, so readers only ever observe a complete snapshot or
none at all -- a crash mid-write leaves the previous snapshot untouched.

The node persistence layer uses this for periodic bloom-filter images: the
payload is the filter's bit array, loaded back with :func:`read_snapshot`
through ``mmap`` so a warm restart costs one bulk copy instead of
re-hashing every fingerprint.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from typing import Any, Dict, Tuple

__all__ = ["SnapshotError", "write_snapshot", "read_snapshot", "discard_staged"]

_MAGIC = b"SHHCSNAP"
_VERSION = 1
# magic, version, meta length, payload length, payload CRC32
_HEADER = struct.Struct(">8sBIQI")
#: Suffix of the file a write is staged in until its rename.
_STAGED = ".tmp"


class SnapshotError(Exception):
    """Snapshot file is missing, truncated, or fails its checksum."""


def write_snapshot(path: str, payload: bytes, meta: Dict[str, Any]) -> int:
    """Atomically write ``payload`` + ``meta`` to ``path``; returns bytes written.

    The file is staged at ``path + ".tmp"``, flushed and fsynced, then
    renamed over ``path``.  Interrupting the write at any point leaves the
    previous snapshot (if any) intact.
    """
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    header = _HEADER.pack(_MAGIC, _VERSION, len(meta_blob), len(payload), zlib.crc32(payload))
    temp_path = path + _STAGED
    with open(temp_path, "wb") as temp:
        temp.write(header)
        temp.write(meta_blob)
        temp.write(payload)
        temp.flush()
        os.fsync(temp.fileno())
    os.replace(temp_path, path)
    return _HEADER.size + len(meta_blob) + len(payload)


def discard_staged(path: str) -> None:
    """Delete the staged file of a write to ``path`` that never reached its rename."""
    try:
        os.remove(path + _STAGED)
    except FileNotFoundError:
        pass


def read_snapshot(path: str, use_mmap: bool = True) -> Tuple[Dict[str, Any], bytes]:
    """Load and verify the snapshot at ``path``; returns ``(meta, payload)``.

    The payload is sliced out of an ``mmap`` of the file (one bulk copy, no
    per-record parsing), falling back to a plain read for empty payloads or
    when ``use_mmap`` is off.  Raises :class:`SnapshotError` for a missing,
    truncated, or checksum-failing file.
    """
    try:
        with open(path, "rb") as snap:
            header = snap.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise SnapshotError(f"truncated snapshot header in {path!r}")
            magic, version, meta_len, payload_len, crc = _HEADER.unpack(header)
            if magic != _MAGIC or version != _VERSION:
                raise SnapshotError(f"not a snapshot file: {path!r}")
            meta_blob = snap.read(meta_len)
            if len(meta_blob) < meta_len:
                raise SnapshotError(f"truncated snapshot metadata in {path!r}")
            payload_offset = _HEADER.size + meta_len
            if use_mmap and payload_len:
                with mmap.mmap(snap.fileno(), 0, access=mmap.ACCESS_READ) as view:
                    payload = view[payload_offset:payload_offset + payload_len]
            else:
                payload = snap.read(payload_len)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    if len(payload) < payload_len:
        raise SnapshotError(f"truncated snapshot payload in {path!r}")
    try:
        meta = json.loads(meta_blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"corrupt snapshot metadata in {path!r}") from exc
    if zlib.crc32(payload) != crc:
        raise SnapshotError(f"snapshot payload checksum mismatch in {path!r}")
    return meta, payload
