"""Batch-framed, append-only fingerprint log: a node's whole durable index.

The unit of the log is the batch that is acknowledged together.  One
``append`` writes the batch as one frame per run of equal-length keys (one
frame for a digest batch) with a single ``write`` and flush, so a frame is
on disk in full before the reply that acknowledges it is sent, and a frame
that is torn or fails its checksum is by construction a batch nobody was
told about -- which is why recovery may drop it, and everything after it,
without losing an acknowledged fingerprint.

Layout (all integers little-endian)::

    file    = MAGIC(7) VERSION(1) frame*
    frame   = op(u8) key_len(u32) count(u32) crc32(u32) body
    body    = keys(count * key_len)  [values(count * u64)]

``crc32`` covers the three header fields and the body, so every byte after
the file header is checked on open.  A put frame (op 1) carries two
columns, the keys joined and the values, so replay parses nothing per
record; a remove frame (op 2) carries the keys only.  Where a key lives in
the store is a function of the key alone
(:mod:`~repro.storage.hashstore`, *Placement rule*), so nothing about
placement is logged.

This is format version 2.  Version 1 (PR 19) carried a third put column,
the store's 64-bit placement hashes; a version-1 file is refused untouched
with :class:`LogFormatError`, like any other file this build does not read
-- there is no converter.  This module is the only place that knows the
format.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from array import array
from itertools import groupby
from typing import Iterator, List, Sequence, Tuple

from .hashstore import FileHashStore
from .packing import _repeated_struct

__all__ = ["FingerprintLog", "LogFormatError", "OP_PUT", "OP_REMOVE"]

OP_PUT = 1
OP_REMOVE = 2

_MAGIC = b"SHHCFPL"
_VERSION = 2
_FILE_HEADER = _MAGIC + bytes([_VERSION])
_FIELDS = struct.Struct("<BII")  # op, key length, record count
_CRC = struct.Struct("<I")  # CRC32(fields + body)
_FRAME_HEADER = _FIELDS.size + _CRC.size
_SWAP = sys.byteorder == "big"


class LogFormatError(Exception):
    """The file at the log's path is not a fingerprint log this build reads."""


def _column(values: Sequence[int]) -> bytes:
    packed = array("Q", values)
    if _SWAP:
        packed.byteswap()
    return packed.tobytes()


def _read_column(view: memoryview) -> array:
    values = array("Q")
    values.frombytes(view)
    if _SWAP:
        values.byteswap()
    return values


class FingerprintLog:
    """Append-only log of put/remove batches with CRC-checked frames.

    Opening verifies every frame and **truncates** the file at the first
    torn or corrupt one (``truncated_bytes`` says how much went), so the log
    always ends on a frame boundary and later appends cannot be misframed.
    Only bytes after a valid file header are ever eligible: a non-empty file
    that does not start with this format's magic and version raises
    :class:`LogFormatError` untouched.  A missing or zero-length file is a
    fresh log.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        #: Records accepted in log order (puts + removes, one per key).
        self.records = 0
        #: Bytes of valid log on disk (header included).
        self.size = 0
        #: Bytes dropped from the tail by the most recent scan.
        self.truncated_bytes = 0
        #: ``(data, frames)`` of the opening scan, kept for the replay that
        #: normally follows so a process start reads the log once.
        self._opened = None
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        if not fresh:
            self._opened = self._scan()
        self._log = open(path, "ab")
        if fresh:
            self._write(_FILE_HEADER)

    # -- reading -----------------------------------------------------------------------
    def _scan(self) -> Tuple[bytes, List[Tuple[int, int, int, int]]]:
        """Verify the file; returns its bytes and ``(op, key_len, count, body)`` frames."""
        with open(self.path, "rb") as log:
            data = log.read()
        if data[:len(_FILE_HEADER)] != _FILE_HEADER:
            raise LogFormatError(f"{self.path!r} holds {self._describe(data)}; left untouched")
        view = memoryview(data)
        frames = []
        records = 0
        offset = len(_FILE_HEADER)
        while offset + _FRAME_HEADER <= len(data):
            body = offset + _FRAME_HEADER
            op, key_len, count = _FIELDS.unpack_from(data, offset)
            # A count the file cannot hold is a torn header, never an allocation.
            end = body + count * (key_len + 8 if op == OP_PUT else key_len)
            if op not in (OP_PUT, OP_REMOVE) or end > len(data):
                break
            crc = zlib.crc32(view[body:end], zlib.crc32(view[offset:offset + _FIELDS.size]))
            if _CRC.unpack_from(data, offset + _FIELDS.size)[0] != crc:
                break
            frames.append((op, key_len, count, body))
            records += count
            offset = end
        self.records = records
        self.size = offset
        self.truncated_bytes = len(data) - offset
        if self.truncated_bytes:
            with open(self.path, "r+b") as log:
                log.truncate(offset)
        return data, frames

    def _describe(self, data: bytes) -> str:
        if data[:len(_MAGIC)] == _MAGIC:
            version = int.from_bytes(data[len(_MAGIC):len(_FILE_HEADER)], "big")
            return f"a fingerprint log of version {version} (this build reads {_VERSION})"
        if next(FileHashStore.scan(self.path), None) is not None:
            return "a per-record FileHashStore container (the layout before the framed log)"
        return f"a foreign file starting {data[:8]!r}"

    def replay(self) -> Iterator[Tuple[int, tuple, array]]:
        """Iterate ``(op, keys, values)`` per frame, in log order.

        Served from the opening scan when nothing was appended since; a
        later replay (an in-process restart) re-reads and re-verifies the
        file here, before returning, so ``records`` and ``truncated_bytes``
        are final by the time the caller iterates.  Remove frames yield an
        empty value column.
        """
        data, frames = self._opened or self._scan()
        self._opened = None
        return self._decode(data, frames)

    @staticmethod
    def _decode(data: bytes, frames) -> Iterator[Tuple[int, tuple, array]]:
        view = memoryview(data)
        for op, key_len, count, body in frames:
            keys = _repeated_struct(f"{key_len}s", count).unpack_from(data, body)
            values = body + key_len * count
            values_end = values + 8 * count if op == OP_PUT else values
            yield op, keys, _read_column(view[values:values_end])

    # -- writing -----------------------------------------------------------------------
    def _write(self, blob: bytes) -> None:
        self._log.write(blob)
        self._log.flush()
        if self.fsync:
            os.fsync(self._log.fileno())
        self.size += len(blob)
        self._opened = None

    def append(self, op: int, keys: Sequence[bytes], values: Sequence[int] = ()) -> None:
        """Write one batch and flush it (fsync iff configured) before returning."""
        parts = []
        start = 0
        for key_len, run in groupby(keys, len):
            run = list(run)
            stop = start + len(run)
            body = b"".join(run) + _column(values[start:stop])
            fields = _FIELDS.pack(op, key_len, len(run))
            parts += (fields, _CRC.pack(zlib.crc32(body, zlib.crc32(fields))), body)
            start = stop
        self._write(b"".join(parts))
        self.records += len(keys)

    def close(self) -> None:
        if not self._log.closed:
            self._log.close()
