"""Cuckoo hash table.

ChunkStash (Debnath et al., USENIX ATC 2010) -- the closest prior system the
paper compares against conceptually -- keeps a compact in-RAM cuckoo hash
index pointing at fingerprints stored on flash, giving one flash read per
lookup.  We implement a standard 2-choice cuckoo hash table with configurable
bucket associativity and a displacement bound, used by the ChunkStash-style
baseline in :mod:`repro.baselines.chunkstash`.

Vectorized batch path
---------------------
:meth:`CuckooHashTable.get_many` / :meth:`CuckooHashTable.contains_many` /
:meth:`CuckooHashTable.put_many` derive the hash words for a whole batch of
20-byte digest keys with one ``struct.unpack`` over the packed key buffer
(:func:`repro.storage.packing.digest_hash_words`) instead of two
``int.from_bytes`` calls per key.  The previous per-key loops are retained
verbatim as ``*_scalar`` methods -- the reference oracle the differential
tests (tests/test_vectorized_kernels.py) drive the vectorized path against.

Packed / shared-memory bucket store (opt-in)
--------------------------------------------
``CuckooHashTable(..., shared=True)`` swaps the list-of-lists bucket store
for a flat byte buffer (per bucket: one count byte, then ``slots_per_bucket``
fixed slots of 20-byte key + 8-byte unsigned value) held in a
``multiprocessing.shared_memory`` segment; ``shared_name=...`` attaches to an
existing segment.  Packed mode restricts entries to 20-byte ``bytes`` keys
and unsigned 64-bit ``int`` values (what the dedup index stores).  Sharing is
handoff-style -- one process builds/publishes, others attach -- not
concurrent-writer safe, and a ``_grow()`` moves to a *new* segment (the name
is re-read via :attr:`CuckooHashTable.shared_segment_name`).  Platforms
without shared memory degrade to a private ``bytearray`` silently.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from .packing import digest_hash_words
from .shm import SharedBuffer

__all__ = ["CuckooHashTable", "CuckooInsertError"]

#: Byte keys at least this long are treated as uniform digests by default.
_DIGEST_KEY_MIN_BYTES = 16

#: Snapshot entry framing: value tag (0=bytes, 1=int, 2=bool), key length,
#: value length.
_SNAPSHOT_ENTRY = struct.Struct(">BII")

#: Packed bucket store: fixed slot geometry and segment header
#: (magic, num_buckets, slots_per_bucket) -- written before any entry so a
#: geometry-mismatched attach fails loudly.
_KEY_BYTES = 20
_VALUE_BYTES = 8
_SLOT_BYTES = _KEY_BYTES + _VALUE_BYTES
_SHM_MAGIC = b"RCK1"
_SHM_HEADER = struct.Struct(">4sQI")


class CuckooInsertError(RuntimeError):
    """Raised when an insertion cannot be placed within the displacement bound."""


class _PackedBuckets:
    """Flat-buffer bucket store behind the packed/shared cuckoo mode.

    Layout: ``num_buckets`` buckets of ``1 + slots * 28`` bytes each -- a
    count byte, then ``slots`` slots of 20-byte key + 8-byte big-endian
    unsigned value.  ``data`` is a writable ``memoryview`` over either a
    shared segment (payload starts after :data:`_SHM_HEADER`) or a private
    ``bytearray``.  Mutation helpers mirror the semantics of the list
    backing exactly (``pop_shift`` == ``list.pop(i)`` + ``append``), so the
    two backings produce identical key->value contents under the same
    operation sequence.
    """

    __slots__ = ("num_buckets", "slots", "stride", "data", "_buffer")

    def __init__(
        self,
        num_buckets: int,
        slots: int,
        shared: bool = False,
        shared_name: Optional[str] = None,
    ) -> None:
        self.num_buckets = num_buckets
        self.slots = slots
        self.stride = 1 + _SLOT_BYTES * slots
        payload = self.stride * num_buckets
        self._buffer: Optional[SharedBuffer] = None
        if shared or shared_name is not None:
            total = _SHM_HEADER.size + payload
            if shared_name is not None:
                if shared:
                    try:
                        buffer = SharedBuffer.create(total, name=shared_name, shared=True)
                    except FileExistsError:
                        buffer = SharedBuffer.attach(shared_name, total)
                else:
                    buffer = SharedBuffer.attach(shared_name, total)
            else:
                buffer = SharedBuffer.create(total, shared=True)
            if buffer.name is not None:
                view = memoryview(buffer.buf)
                if bytes(view[:4]) == b"\x00\x00\x00\x00":
                    _SHM_HEADER.pack_into(view, 0, _SHM_MAGIC, num_buckets, slots)
                else:
                    magic, seg_buckets, seg_slots = _SHM_HEADER.unpack_from(view, 0)
                    if magic != _SHM_MAGIC or seg_buckets != num_buckets or seg_slots != slots:
                        name = buffer.name
                        view.release()
                        buffer.close()
                        raise ValueError(
                            f"shared segment {name!r} holds a table with "
                            f"buckets={seg_buckets} slots={seg_slots}; "
                            f"this table needs buckets={num_buckets} slots={slots}"
                        )
                self._buffer = buffer
                self.data = view[_SHM_HEADER.size:]
                return
        # Private fallback (also taken when segment allocation fails).
        self.data = memoryview(bytearray(payload))

    # -- lifecycle ---------------------------------------------------------------
    @property
    def shared_name(self) -> Optional[str]:
        buffer = self._buffer
        return buffer.name if buffer is not None else None

    def close(self) -> None:
        buffer, self._buffer = self._buffer, None
        if buffer is not None:
            data, self.data = self.data, memoryview(bytearray(0))
            data.release()
            buffer.close()

    def unlink(self) -> None:
        buffer, self._buffer = self._buffer, None
        if buffer is not None:
            data, self.data = self.data, memoryview(bytearray(0))
            data.release()
            buffer.unlink()

    # -- bucket ops --------------------------------------------------------------
    def count_of(self, bucket: int) -> int:
        return self.data[bucket * self.stride]

    def find(self, bucket: int, key: bytes, default: Any) -> Any:
        data = self.data
        base = bucket * self.stride
        offset = base + 1
        for _ in range(data[base]):
            if data[offset:offset + _KEY_BYTES] == key:
                return int.from_bytes(data[offset + _KEY_BYTES:offset + _SLOT_BYTES], "big")
            offset += _SLOT_BYTES
        return default

    def update(self, bucket: int, key: bytes, value: int) -> bool:
        data = self.data
        base = bucket * self.stride
        offset = base + 1
        for _ in range(data[base]):
            if data[offset:offset + _KEY_BYTES] == key:
                data[offset + _KEY_BYTES:offset + _SLOT_BYTES] = value.to_bytes(8, "big")
                return True
            offset += _SLOT_BYTES
        return False

    def append(self, bucket: int, key: bytes, value: int) -> bool:
        """Place in the first free slot; ``False`` when the bucket is full."""
        data = self.data
        base = bucket * self.stride
        count = data[base]
        if count >= self.slots:
            return False
        offset = base + 1 + count * _SLOT_BYTES
        data[offset:offset + _KEY_BYTES] = key
        data[offset + _KEY_BYTES:offset + _SLOT_BYTES] = value.to_bytes(8, "big")
        data[base] = count + 1
        return True

    def pop_shift(self, bucket: int, index: int) -> Tuple[bytes, int]:
        """Remove slot ``index`` (shifting later slots left), like ``list.pop``."""
        data = self.data
        base = bucket * self.stride
        count = data[base]
        offset = base + 1 + index * _SLOT_BYTES
        key = bytes(data[offset:offset + _KEY_BYTES])
        value = int.from_bytes(data[offset + _KEY_BYTES:offset + _SLOT_BYTES], "big")
        tail = (count - index - 1) * _SLOT_BYTES
        if tail:
            moved = bytes(data[offset + _SLOT_BYTES:offset + _SLOT_BYTES + tail])
            data[offset:offset + tail] = moved
        data[base] = count - 1
        return key, value

    def remove(self, bucket: int, key: bytes) -> bool:
        data = self.data
        base = bucket * self.stride
        offset = base + 1
        for index in range(data[base]):
            if data[offset:offset + _KEY_BYTES] == key:
                self.pop_shift(bucket, index)
                return True
            offset += _SLOT_BYTES
        return False

    def items(self) -> Iterator[Tuple[bytes, int]]:
        data = self.data
        stride = self.stride
        for bucket in range(self.num_buckets):
            base = bucket * stride
            offset = base + 1
            for _ in range(data[base]):
                yield (
                    bytes(data[offset:offset + _KEY_BYTES]),
                    int.from_bytes(data[offset + _KEY_BYTES:offset + _SLOT_BYTES], "big"),
                )
                offset += _SLOT_BYTES

    def scan_size(self) -> int:
        """Total entries, from the per-bucket count bytes (attach path)."""
        data = self.data
        stride = self.stride
        return sum(data[bucket * stride] for bucket in range(self.num_buckets))


def _check_packed_entry(key: bytes, value: Any) -> int:
    """Validate a packed-mode entry; returns the value as an int."""
    if type(key) is not bytes or len(key) != _KEY_BYTES:
        raise TypeError(
            f"packed cuckoo mode stores {_KEY_BYTES}-byte digest keys; got "
            f"{type(key).__name__} of length {len(key) if isinstance(key, (bytes, bytearray, str)) else '?'}"
        )
    if type(value) is bool or not isinstance(value, int) or not 0 <= value < (1 << 64):
        raise TypeError(
            "packed cuckoo mode stores unsigned 64-bit int values; got "
            f"{value!r}"
        )
    return value


class CuckooHashTable:
    """A 2-hash, bucketised cuckoo hash table mapping byte keys to values.

    Parameters
    ----------
    initial_buckets:
        Number of buckets per table half at construction.
    slots_per_bucket:
        Bucket associativity (4 is the common choice).
    max_displacements:
        How many evict/re-insert steps to try before growing the table.
    digest_keys:
        When ``True`` (the default), byte keys of >= 16 bytes are assumed to
        be uniformly distributed digests (SHA-1 fingerprints are the primary
        use) and the two bucket choices are read directly from the key bytes
        instead of re-hashing with BLAKE2b.  Set to ``False`` when long keys
        may be structured (non-uniform).
    shared / shared_name:
        Opt-in packed bucket store in a shared-memory segment (see module
        docstring).  Restricts entries to 20-byte keys and unsigned 64-bit
        int values; degrades to a private flat buffer when shared memory is
        unavailable.
    """

    def __init__(
        self,
        initial_buckets: int = 1024,
        slots_per_bucket: int = 4,
        max_displacements: int = 500,
        digest_keys: bool = True,
        shared: bool = False,
        shared_name: Optional[str] = None,
    ) -> None:
        if initial_buckets < 1:
            raise ValueError("initial_buckets must be >= 1")
        if slots_per_bucket < 1:
            raise ValueError("slots_per_bucket must be >= 1")
        self.slots_per_bucket = slots_per_bucket
        self.max_displacements = max_displacements
        self.digest_keys = bool(digest_keys)
        self._num_buckets = initial_buckets
        self._packed: Optional[_PackedBuckets] = None
        if shared or shared_name is not None:
            self._packed = _PackedBuckets(
                initial_buckets, slots_per_bucket, shared=shared, shared_name=shared_name
            )
            self._buckets: List[List[Tuple[bytes, Any]]] = []
            self._size = self._packed.scan_size() if shared_name is not None else 0
        else:
            self._buckets = [[] for _ in range(initial_buckets)]
            self._size = 0
        self.displacements = 0
        self.resizes = 0

    # -- hashing ------------------------------------------------------------------
    def _hash_pair(self, key: bytes) -> Tuple[int, int]:
        """Two independent 64-bit hash words for ``key`` (pre-modulus).

        Keys that are already cryptographic digests supply both words
        directly from their own bytes -- re-hashing a digest buys no extra
        uniformity and dominates the per-op cost otherwise.
        """
        if isinstance(key, str):
            key = key.encode("utf-8")
        if self.digest_keys and len(key) >= _DIGEST_KEY_MIN_BYTES:
            return int.from_bytes(key[:8], "big"), int.from_bytes(key[8:16], "big")
        digest = hashlib.blake2b(key, digest_size=16).digest()
        return int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:], "big")

    def _hashes(self, key: bytes) -> Tuple[int, int]:
        w1, w2 = self._hash_pair(key)
        num_buckets = self._num_buckets
        h1 = w1 % num_buckets
        h2 = w2 % num_buckets
        if h2 == h1:
            h2 = (h1 + 1) % num_buckets
        return h1, h2

    def _batch_words(self, keys) -> Tuple[Optional[tuple], Sequence[bytes]]:
        """``(flat hash words, key sequence)`` for an eligible digest batch.

        Accepts a :class:`~repro.core.digest_batch.DigestBatch` (words come
        cached from its contiguous buffer) or a list/tuple in which *every*
        key is a 20-byte ``bytes`` digest; everything else returns
        ``(None, keys)`` and the caller falls through to the scalar oracle.
        The per-key length check is mandatory -- mixed-length keys merely
        summing to a multiple of 20 would hash wrong silently.
        """
        if not self.digest_keys:
            return None, keys
        hash_words = getattr(keys, "hash_words", None)
        if hash_words is not None:
            return hash_words(), keys.digests
        if type(keys) in (list, tuple) and keys:
            for key in keys:
                if type(key) is not bytes or len(key) != 20:
                    return None, keys
            return digest_hash_words(b"".join(keys), len(keys)), keys
        return None, keys

    # -- public API -----------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def num_buckets(self) -> int:
        return self._num_buckets

    @property
    def shared_segment_name(self) -> Optional[str]:
        """Name of the backing shared segment (``None`` when private/list).

        Re-read after inserts: a ``_grow()`` moves the table to a new
        segment with a new name.
        """
        packed = self._packed
        return packed.shared_name if packed is not None else None

    def close_shared(self) -> None:
        """Detach from the shared segment (terminal for this table)."""
        if self._packed is not None:
            self._packed.close()

    def unlink_shared(self) -> None:
        """Detach *and* remove the backing segment from the system."""
        if self._packed is not None:
            self._packed.unlink()

    def load_factor(self) -> float:
        """Occupied slots divided by total slots."""
        return self._size / (self._num_buckets * self.slots_per_bucket)

    def get(self, key: bytes, default: Any = None) -> Any:
        """Return the value stored under ``key`` or ``default``."""
        packed = self._packed
        if packed is not None:
            h1, h2 = self._hashes(key)
            value = packed.find(h1, key, _SENTINEL)
            if value is _SENTINEL:
                value = packed.find(h2, key, _SENTINEL)
            return default if value is _SENTINEL else value
        for bucket_index in self._hashes(key):
            for stored_key, value in self._buckets[bucket_index]:
                if stored_key == key:
                    return value
        return default

    def get_many(self, keys: Sequence[bytes], default: Any = None) -> List[Any]:
        """Values for a batch of keys, in input order.

        Vectorized: for a ``DigestBatch`` or an all-20-byte-digest batch the
        hash words of every key come from one ``struct.unpack`` over the
        packed key buffer; other inputs use :meth:`get_many_scalar`.
        """
        words, key_list = self._batch_words(keys)
        if words is None:
            return self.get_many_scalar(key_list, default)
        num_buckets = self._num_buckets
        packed = self._packed
        results: List[Any] = []
        append = results.append
        pairs = iter(words)
        if packed is not None:
            find = packed.find
            for key, w1 in zip(key_list, pairs):
                h1 = w1 % num_buckets
                h2 = next(pairs) % num_buckets
                if h2 == h1:
                    h2 = (h1 + 1) % num_buckets
                value = find(h1, key, _SENTINEL)
                if value is _SENTINEL:
                    value = find(h2, key, _SENTINEL)
                append(default if value is _SENTINEL else value)
            return results
        buckets = self._buckets
        for key, w1 in zip(key_list, pairs):
            h1 = w1 % num_buckets
            h2 = next(pairs) % num_buckets
            if h2 == h1:
                h2 = (h1 + 1) % num_buckets
            value = default
            for stored_key, stored_value in buckets[h1]:
                if stored_key == key:
                    value = stored_value
                    break
            else:
                for stored_key, stored_value in buckets[h2]:
                    if stored_key == key:
                        value = stored_value
                        break
            append(value)
        return results

    def get_many_scalar(self, keys: Sequence[bytes], default: Any = None) -> List[Any]:
        """Per-key batch probe: the reference oracle for :meth:`get_many`.

        This is the pre-vectorization body, retained verbatim (it hoists
        attribute and bound-method lookups out of the loop but still hashes
        key by key).
        """
        packed = self._packed
        if packed is not None:
            return [self.get(key, default) for key in keys]
        buckets = self._buckets
        num_buckets = self._num_buckets
        hash_pair = self._hash_pair
        results: List[Any] = []
        append = results.append
        for key in keys:
            w1, w2 = hash_pair(key)
            h1 = w1 % num_buckets
            h2 = w2 % num_buckets
            if h2 == h1:
                h2 = (h1 + 1) % num_buckets
            value = default
            for stored_key, stored_value in buckets[h1]:
                if stored_key == key:
                    value = stored_value
                    break
            else:
                for stored_key, stored_value in buckets[h2]:
                    if stored_key == key:
                        value = stored_value
                        break
            append(value)
        return results

    def contains_many(self, keys: Sequence[bytes]) -> List[bool]:
        """Membership verdicts for a batch of keys, in input order."""
        sentinel = object()
        return [value is not sentinel for value in self.get_many(keys, sentinel)]

    def contains_many_scalar(self, keys: Sequence[bytes]) -> List[bool]:
        """Per-key membership oracle for :meth:`contains_many`."""
        sentinel = object()
        return [value is not sentinel for value in self.get_many_scalar(keys, sentinel)]

    def put_many(self, items: Iterable[Tuple[bytes, Any]]) -> None:
        """Insert or update a batch of ``(key, value)`` pairs.

        Vectorized for all-digest batches: hash words for the whole batch
        come from one ``struct.unpack``, and present/free-slot cases are
        settled inline; only keys needing displacement take the scalar
        :meth:`put` slow path (which may grow the table -- the bucket
        moduli are re-derived per key for exactly that reason).
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        if not items:
            return
        if self.digest_keys:
            for key, _value in items:
                if type(key) is not bytes or len(key) != 20:
                    break
            else:
                self._put_many_words(items)
                return
        self.put_many_scalar(items)

    def put_many_scalar(self, items: Iterable[Tuple[bytes, Any]]) -> None:
        """Per-pair insert oracle for :meth:`put_many` (pre-vectorization body)."""
        for key, value in items:
            self.put(key, value)

    def _put_many_words(self, items: Sequence[Tuple[bytes, Any]]) -> None:
        words = digest_hash_words(b"".join(key for key, _value in items), len(items))
        packed = self._packed
        pairs = iter(words)
        index = 0
        for w1 in pairs:
            w2 = next(pairs)
            key, value = items[index]
            index += 1
            # Re-read the bucket count every key: a displacement-path put()
            # below may have grown the table mid-batch.
            num_buckets = self._num_buckets
            h1 = w1 % num_buckets
            h2 = w2 % num_buckets
            if h2 == h1:
                h2 = (h1 + 1) % num_buckets
            if packed is not None:
                value = _check_packed_entry(key, value)
                if packed.update(h1, key, value) or packed.update(h2, key, value):
                    continue
                if packed.append(h1, key, value) or packed.append(h2, key, value):
                    self._size += 1
                    continue
                self.put(key, value)
                packed = self._packed  # put() may have grown into a new store
                continue
            bucket = self._buckets[h1]
            other = self._buckets[h2]
            placed = False
            for i, (stored_key, _old) in enumerate(bucket):
                if stored_key == key:
                    bucket[i] = (key, value)
                    placed = True
                    break
            if not placed:
                for i, (stored_key, _old) in enumerate(other):
                    if stored_key == key:
                        other[i] = (key, value)
                        placed = True
                        break
            if placed:
                continue
            slots = self.slots_per_bucket
            if len(bucket) < slots:
                bucket.append((key, value))
                self._size += 1
            elif len(other) < slots:
                other.append((key, value))
                self._size += 1
            else:
                self.put(key, value)

    def __contains__(self, key: bytes) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def put(self, key: bytes, value: Any) -> None:
        """Insert or update ``key``; grows the table if placement fails."""
        if self._packed is not None:
            value = _check_packed_entry(key, value)
        if self._update_in_place(key, value):
            return
        entry = (key, value)
        for _attempt in range(8):  # growth attempts
            placed = self._insert_with_displacement(entry)
            if placed is None:
                self._size += 1
                return
            entry = placed
            self._grow()
        raise CuckooInsertError("unable to place entry even after growing")

    def remove(self, key: bytes) -> bool:
        """Delete ``key``; returns whether it was present."""
        packed = self._packed
        if packed is not None:
            for bucket_index in self._hashes(key):
                if packed.remove(bucket_index, key):
                    self._size -= 1
                    return True
            return False
        for bucket_index in self._hashes(key):
            bucket = self._buckets[bucket_index]
            for i, (stored_key, _value) in enumerate(bucket):
                if stored_key == key:
                    bucket.pop(i)
                    self._size -= 1
                    return True
        return False

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        """Iterate all ``(key, value)`` pairs in unspecified order."""
        if self._packed is not None:
            yield from self._packed.items()
            return
        for bucket in self._buckets:
            yield from bucket

    def keys(self) -> Iterator[bytes]:
        for key, _value in self.items():
            yield key

    # -- persistence ------------------------------------------------------------------
    def snapshot_payload(self) -> bytes:
        """Serialise every entry for a persistence snapshot.

        Values must be ``bytes``, ``int``, or ``bool`` (the dedup index
        stores chunk sizes); richer values belong in an external store.
        """
        chunks = []
        pack = _SNAPSHOT_ENTRY.pack
        for key, value in self.items():
            if isinstance(value, bool):
                tag, blob = 2, (b"\x01" if value else b"\x00")
            elif isinstance(value, int):
                tag, blob = 1, value.to_bytes(8, "big", signed=True)
            elif isinstance(value, (bytes, bytearray)):
                tag, blob = 0, bytes(value)
            else:
                raise TypeError(f"cannot snapshot value of type {type(value).__name__}")
            chunks.append(pack(tag, len(key), len(blob)) + key + blob)
        return b"".join(chunks)

    def restore_payload(self, payload: bytes) -> int:
        """Insert entries from :meth:`snapshot_payload` output; returns the count.

        The entry count is pre-scanned from the frame headers (no body
        copies) and the bucket array is sized once up front.  Replaying a
        large snapshot through :meth:`put` against the construction-time
        bucket count used to trigger a cascade of ``_grow()`` full-rehash
        cycles on every warm restart -- O(n log n) re-insertions where one
        O(n) pass suffices.
        """
        length = len(payload)
        unpack_from = _SNAPSHOT_ENTRY.unpack_from
        header = _SNAPSHOT_ENTRY.size
        offset = 0
        entries = 0
        while offset < length:
            _tag, key_len, value_len = unpack_from(payload, offset)
            offset += header + key_len + value_len
            entries += 1
        self.reserve(self._size + entries)
        offset = 0
        restored = 0
        while offset < length:
            tag, key_len, value_len = unpack_from(payload, offset)
            offset += header
            key = bytes(payload[offset:offset + key_len])
            offset += key_len
            blob = bytes(payload[offset:offset + value_len])
            offset += value_len
            if tag == 1:
                value: Any = int.from_bytes(blob, "big", signed=True)
            elif tag == 2:
                value = blob == b"\x01"
            else:
                value = blob
            self.put(key, value)
            restored += 1
        return restored

    def reserve(self, total_entries: int) -> None:
        """Size the table for ``total_entries`` at <= 50% load, in one rehash."""
        target = self._num_buckets
        slots = self.slots_per_bucket
        while total_entries > (target * slots) // 2:
            target *= 2
        if target > self._num_buckets:
            self._resize_to(target)

    # -- internals ---------------------------------------------------------------------
    def _update_in_place(self, key: bytes, value: Any) -> bool:
        packed = self._packed
        if packed is not None:
            h1, h2 = self._hashes(key)
            return packed.update(h1, key, value) or packed.update(h2, key, value)
        for bucket_index in self._hashes(key):
            bucket = self._buckets[bucket_index]
            for i, (stored_key, _old) in enumerate(bucket):
                if stored_key == key:
                    bucket[i] = (key, value)
                    return True
        return False

    def _insert_with_displacement(self, entry: Tuple[bytes, Any]) -> Optional[Tuple[bytes, Any]]:
        """Try to place ``entry``; return a displaced entry that could not be placed."""
        packed = self._packed
        current = entry
        bucket_index = self._hashes(current[0])[0]
        for step in range(self.max_displacements):
            h1, h2 = self._hashes(current[0])
            if packed is not None:
                if packed.append(h1, current[0], current[1]) or packed.append(
                    h2, current[0], current[1]
                ):
                    return None
                bucket_index = h2 if bucket_index == h1 else h1
                victim = packed.pop_shift(bucket_index, step % self.slots_per_bucket)
                packed.append(bucket_index, current[0], current[1])
                current = victim
                self.displacements += 1
                continue
            for candidate in (h1, h2):
                bucket = self._buckets[candidate]
                if len(bucket) < self.slots_per_bucket:
                    bucket.append(current)
                    return None
            # Both buckets full: evict a victim from the alternate bucket and retry.
            bucket_index = h2 if bucket_index == h1 else h1
            victim_bucket = self._buckets[bucket_index]
            victim = victim_bucket.pop(step % self.slots_per_bucket)
            victim_bucket.append(current)
            current = victim
            self.displacements += 1
        return current

    def _grow(self) -> None:
        self._resize_to(self._num_buckets * 2)

    def _resize_to(self, target_buckets: int) -> None:
        """Rehash every entry into ``target_buckets`` buckets (one resize)."""
        self.resizes += 1
        old_entries = list(self.items())
        self._num_buckets = target_buckets
        old_packed = self._packed
        if old_packed is not None:
            # A shared store grows into a NEW segment (attachers re-read the
            # name); the predecessor is unlinked here since this process owns it.
            self._packed = _PackedBuckets(
                target_buckets, self.slots_per_bucket, shared=old_packed.shared_name is not None
            )
            old_packed.unlink()
        else:
            self._buckets = [[] for _ in range(target_buckets)]
        self._size = 0
        for key, value in old_entries:
            self.put(key, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CuckooHashTable size={self._size} buckets={self._num_buckets} "
            f"load={self.load_factor():.2f}>"
        )


_SENTINEL = object()
