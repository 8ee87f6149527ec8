"""SSD-resident persistent hash table (Berkeley DB substitute).

The paper stores each node's fingerprint table on SSD "as a Berkeley DB"
(§III.B).  Berkeley DB is not available here, so this module provides two
replacements:

* :class:`SSDHashStore` -- the store inside every hash node, simulated or
  live.  It is a bucketised (page-oriented) hash table held in memory for
  correctness -- one ``dict`` for the entries plus one column of per-bucket
  entry counts -- paired with an explicit **I/O cost model**: every logical
  operation reports the flash page reads/writes it would require (one page
  probe per lookup, write-buffered page flushes for inserts).  The hybrid
  hash node replays those operations against its simulated SSD device, so
  latency and queueing behave like the real thing without an actual flash
  device.  What makes a node's table durable is the batch-framed
  :class:`~repro.storage.fplog.FingerprintLog`, not this module.
* :class:`FileHashStore` -- a real on-disk append-only key/value store with an
  in-memory index and crash-safe recovery: the CLI archiver's chunk object
  store.  No hash node uses it.

Placement rule
--------------
Keys are 20-byte fingerprint digests.  A digest lives in bucket
``int.from_bytes(key[-8:], "big") % num_buckets``: the digest is already a
uniform hash, and its *trailing* word is the one nothing else consumes (the
bloom filter, the cuckoo table and ``RangePartitioner`` read the leading
bytes, and range routing makes a node's leading byte non-uniform).  The
rule is a pure function of the key, so nothing about placement is stored,
memoized or logged.
"""

from __future__ import annotations

import os
import struct
import zlib
from array import array
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["IOOperation", "SSDHashStore", "FileHashStore"]


@dataclass(frozen=True, slots=True)
class IOOperation:
    """One device access implied by a logical store operation."""

    kind: str  # "read" or "write"
    size_bytes: int
    random_access: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write"):
            raise ValueError(f"invalid IO kind {self.kind!r}")
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")


class SSDHashStore:
    """Bucketised hash table with a flash-aware I/O cost model.

    Parameters
    ----------
    num_buckets:
        Number of hash buckets (pages).  Lookups touch exactly one bucket.
    page_size:
        Flash page size in bytes; every device access is one page.
    entry_size:
        Bytes per stored entry (fingerprint + metadata); determines how many
        entries fit into one page before the bucket overflows onto a chain.
    write_buffer_pages:
        Inserts are accumulated in a RAM write buffer and flushed to flash one
        page at a time once a page worth of entries for some bucket exists
        (mirroring dedupv1/ChunkStash-style delayed writes).  Setting this to
        0 makes every insert an immediate page write.
    """

    def __init__(
        self,
        num_buckets: int = 1 << 16,
        page_size: int = 4096,
        entry_size: int = 48,
        write_buffer_pages: int = 64,
    ) -> None:
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        if page_size < entry_size:
            raise ValueError("page_size must be at least entry_size")
        self.num_buckets = num_buckets
        self.page_size = page_size
        self.entry_size = entry_size
        self.entries_per_page = max(1, page_size // entry_size)
        self.write_buffer_pages = write_buffer_pages
        self._table: Dict[bytes, Any] = {}
        #: Entries per bucket -- all the cost model needs of a bucket.  32-bit:
        #: a one-bucket store holds every entry in that bucket.
        self._counts = array("I", bytes(4 * num_buckets))
        self._buffered_entries = 0
        # -- statistics
        self.page_reads = 0
        self.page_writes = 0
        self.buffer_flushes = 0

    # -- placement -----------------------------------------------------------------
    def bucket_of(self, key: bytes) -> int:
        """Bucket index owning ``key`` (see the module's *Placement rule*)."""
        return int.from_bytes(key[-8:], "big") % self.num_buckets

    def _bucket_pages(self, bucket_index: int) -> int:
        """Number of flash pages the bucket currently spans (>= 1)."""
        return -(-self._counts[bucket_index] // self.entries_per_page) or 1

    # -- logical operations -----------------------------------------------------------
    def get(self, key: bytes, default: Any = None) -> Any:
        """Return the stored value for ``key`` or ``default``."""
        return self._table.get(key, default)

    def __contains__(self, key: bytes) -> bool:
        return key in self._table

    def put(self, key: bytes, value: Any = True) -> bool:
        """Insert or update; returns ``True`` if the key was new."""
        if key in self._table:
            self._table[key] = value
            return False
        # Placed before it is stored: a key that cannot be placed leaves no entry.
        self._counts[self.bucket_of(key)] += 1
        self._table[key] = value
        self._buffered_entries += 1
        return True

    def put_many_verdicts(self, pairs: Sequence[Tuple[bytes, Any]]):
        """Batched :meth:`put` over ``(key, value)`` pairs, partitioned by verdict.

        Returns ``(new_keys, existing_keys)``: the keys that were absent
        (inserted, in input order) and the keys that were already present
        (updated in place, in input order).  State transitions are exactly
        those of calling :meth:`put` per pair -- this only hoists the
        attribute lookups out of the per-key path, which is what the
        cluster's replica propagation pays per new fingerprint.
        """
        table = self._table
        counts = self._counts
        num_buckets = self.num_buckets
        from_bytes = int.from_bytes
        new_keys = []
        existing_keys = []
        new_append = new_keys.append
        existing_append = existing_keys.append
        for key, value in pairs:
            if key in table:
                existing_append(key)
            else:
                new_append(key)
                counts[from_bytes(key[-8:], "big") % num_buckets] += 1
            table[key] = value
        self._buffered_entries += len(new_keys)
        return new_keys, existing_keys

    def remove(self, key: bytes) -> bool:
        """Delete ``key``; returns whether it was present."""
        if key in self._table:
            del self._table[key]
            self._counts[self.bucket_of(key)] -= 1
            return True
        return False

    def __len__(self) -> int:
        return len(self._table)

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        """Iterate all stored entries (unspecified order)."""
        return iter(self._table.items())

    def keys(self) -> Iterator[bytes]:
        return iter(self._table)

    def fill(self, keys: Sequence[bytes], values: Sequence[Any]) -> None:
        """Recovery's bulk :meth:`put` of one logged batch.

        The write buffer is left alone: what the log replays is already on
        flash.
        """
        buffered = self._buffered_entries
        self.put_many_verdicts(zip(keys, values))
        self._buffered_entries = buffered

    # -- I/O cost model ------------------------------------------------------------------
    def lookup_io(self, key: bytes) -> List[IOOperation]:
        """Device accesses required to look ``key`` up on flash.

        A lookup reads the bucket's page chain; with a well-sized table this
        is a single page read, matching ChunkStash's "one flash read per
        lookup" property.
        """
        pages = self._bucket_pages(self.bucket_of(key))
        self.page_reads += pages
        return [IOOperation("read", self.page_size) for _ in range(pages)]

    def insert_io(self, key: bytes) -> List[IOOperation]:
        """Device accesses required to persist an insert of ``key``.

        Inserts are buffered in RAM; when a page worth of new entries has
        accumulated (per the configured ``write_buffer_pages`` budget), one
        page write is issued.  The amortised cost is therefore
        ``1 / entries_per_page`` page writes per insert.
        """
        del key  # placement does not change the amortised cost
        flush_threshold = max(1, self.entries_per_page)
        if self.write_buffer_pages <= 0:
            self.page_writes += 1
            return [IOOperation("write", self.page_size)]
        if self._buffered_entries >= flush_threshold:
            pages = self._buffered_entries // flush_threshold
            pages = min(pages, self.write_buffer_pages)
            self._buffered_entries -= pages * flush_threshold
            self.page_writes += pages
            self.buffer_flushes += 1
            return [IOOperation("write", self.page_size, random_access=False) for _ in range(pages)]
        return []

    # -- fused-kernel hand-off -----------------------------------------------------------
    #
    # The hash node's batch kernel (core/bucket_kernel.py) inlines the
    # ``lookup_io`` + membership probe and the known-new ``put`` +
    # ``insert_io`` against the raw table and count column: same bucket
    # maths, same ``page_reads``/``page_writes``/write-buffer accounting, but
    # no method call per key and no :class:`IOOperation` objects are built
    # (the kernel multiplies page counts by its per-page device costs).
    # Equivalence with the list-returning methods is pinned by
    # tests/test_storage_cuckoo_hashstore.py.

    def batch_state(self) -> Tuple[Dict[bytes, Any], array, int, int, int, int]:
        """Raw state handed to a fused batch kernel (see bucket_kernel).

        Returns ``(table, counts, num_buckets, entries_per_page,
        write_buffer_pages, buffered_entries)``.  The kernel mutates the
        table and the count column directly (known-new inserts only: the
        bloom filter or the SSD probe has established the key is absent, so
        :meth:`put`'s membership check is skipped), tracks page/flush counts
        and the write buffer locally from these starting values, and the
        caller settles the deltas back with :meth:`settle_batch`.  Nothing
        else may touch the store between the two calls.
        """
        return (
            self._table,
            self._counts,
            self.num_buckets,
            self.entries_per_page,
            self.write_buffer_pages,
            self._buffered_entries,
        )

    def settle_batch(
        self,
        page_reads: int,
        page_writes: int,
        buffer_flushes: int,
        buffered_entries: int,
    ) -> None:
        """Apply a fused kernel's accounting deltas (see :meth:`batch_state`).

        ``buffered_entries`` is the kernel's final write-buffer fill (an
        absolute value, not a delta); everything else accumulates.  The
        result is state-identical to having run :meth:`lookup_io` and, for
        new keys, :meth:`put` + :meth:`insert_io` per key.
        """
        self.page_reads += page_reads
        self.page_writes += page_writes
        self.buffer_flushes += buffer_flushes
        self._buffered_entries = buffered_entries

    # -- reporting ----------------------------------------------------------------------
    def occupancy(self) -> float:
        """Mean entries per bucket divided by entries per page."""
        return len(self._table) / (self.num_buckets * self.entries_per_page)

    def stats(self) -> dict:
        return {
            "entries": len(self._table),
            "buckets": self.num_buckets,
            "entries_per_page": self.entries_per_page,
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "buffer_flushes": self.buffer_flushes,
            "occupancy": self.occupancy(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SSDHashStore entries={len(self._table)} buckets={self.num_buckets}>"


_RECORD_HEADER = struct.Struct(">BIII")  # op, key length, value length, CRC32(key+value)


class FileHashStore:
    """Append-only on-disk key/value store with an in-memory index.

    The layout is a single log-structured container file of
    ``(op, key, value)`` records, each carrying a CRC32 of its body; an
    in-memory dict maps keys to values, both ``bytes`` (the CLI keys each
    chunk payload by its digest).  Recovery replays the container and
    **truncates** it at the first torn or corrupt record (the tail of a
    crashed append), so the on-disk state always ends on a record boundary
    and later appends cannot be misframed by leftover garbage.
    :meth:`compact` rewrites the log to drop overwritten and deleted records.
    This is the "really persistent" option for using the library outside the
    simulator (the CLI's chunk object store); a node's own fingerprints live
    in the batch-framed :class:`~repro.storage.fplog.FingerprintLog`.
    """

    _OP_PUT = 1
    _OP_DELETE = 2

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self._index: Dict[bytes, bytes] = {}
        #: Records accepted from the container in log order (puts + deletes);
        #: grows with every append.  Snapshots reference a record count so
        #: recovery can replay only the tail written after the snapshot.
        self.record_count = 0
        #: Bytes dropped from the container tail during the last recovery
        #: (0 when the file ended on a clean record boundary).
        self.truncated_bytes = 0
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(path):
            self._recover()
        self._log = open(path, "ab")

    # -- record framing --------------------------------------------------------------
    @classmethod
    def _encode(cls, op: int, key: bytes, value: bytes) -> bytes:
        crc = zlib.crc32(value, zlib.crc32(key, op))
        return _RECORD_HEADER.pack(op, len(key), len(value), crc) + key + value

    @classmethod
    def _parse(cls, data: bytes, offset: int) -> Optional[Tuple[int, bytes, bytes, int]]:
        """Decode the record at ``offset``; ``None`` for a torn/corrupt record."""
        if offset + _RECORD_HEADER.size > len(data):
            return None
        op, key_len, value_len, crc = _RECORD_HEADER.unpack_from(data, offset)
        if op not in (cls._OP_PUT, cls._OP_DELETE):
            return None
        body = offset + _RECORD_HEADER.size
        end = body + key_len + value_len
        if end > len(data):
            return None
        key = data[body:body + key_len]
        value = data[body + key_len:end]
        if zlib.crc32(value, zlib.crc32(key, op)) != crc:
            return None
        return op, key, value, end

    @classmethod
    def scan(cls, path: str) -> Iterator[Tuple[int, bytes, bytes]]:
        """Yield ``(op, key, value)`` container records in log order.

        Stops at the first torn or corrupt record, exactly like recovery.
        """
        with open(path, "rb") as log:
            data = log.read()
        offset = 0
        while True:
            parsed = cls._parse(data, offset)
            if parsed is None:
                return
            op, key, value, offset = parsed
            yield op, key, value

    def _recover(self) -> None:
        with open(self.path, "rb") as log:
            data = log.read()
        offset = 0
        index = self._index
        while True:
            parsed = self._parse(data, offset)
            if parsed is None:
                break
            op, key, value, offset = parsed
            if op == self._OP_PUT:
                index[key] = value
            else:
                index.pop(key, None)
            self.record_count += 1
        if offset < len(data):
            # Torn or corrupt tail from a crash mid-append: truncate back to
            # the last valid record so the container ends on a clean boundary.
            self.truncated_bytes = len(data) - offset
            with open(self.path, "r+b") as log:
                log.truncate(offset)

    def _sync(self) -> None:
        self._log.flush()
        if self.fsync:
            os.fsync(self._log.fileno())

    # -- public API --------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        """Durably store ``value`` under ``key``."""
        record = self._encode(self._OP_PUT, key, value)
        self._log.write(record)
        self._sync()
        self._index[key] = value
        self.record_count += 1

    def get(self, key: bytes, default: Optional[bytes] = None) -> Optional[bytes]:
        """Fetch the latest value stored under ``key``."""
        return self._index.get(key, default)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it existed."""
        if key not in self._index:
            return False
        record = self._encode(self._OP_DELETE, key, b"")
        self._log.write(record)
        self._sync()
        del self._index[key]
        self.record_count += 1
        return True

    def __contains__(self, key: bytes) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> Iterator[bytes]:
        return iter(list(self._index.keys()))

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        return iter(list(self._index.items()))

    def compact(self) -> None:
        """Rewrite the log keeping only live records."""
        temp_path = self.path + ".compact"
        with open(temp_path, "wb") as temp:
            for key, value in self._index.items():
                temp.write(self._encode(self._OP_PUT, key, value))
            temp.flush()
            if self.fsync:
                os.fsync(temp.fileno())
        self._log.close()
        os.replace(temp_path, self.path)
        self._log = open(self.path, "ab")
        self.record_count = len(self._index)

    def close(self) -> None:
        """Flush and close the underlying log file."""
        if not self._log.closed:
            self._sync()
            self._log.close()

    def __enter__(self) -> "FileHashStore":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()
