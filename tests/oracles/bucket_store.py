"""The list-of-dicts ``SSDHashStore``, kept as the reference model.

Until PR 21 the store *was* this: ``num_buckets`` separate dicts, a bucket's
page count read off ``len(bucket)``, every logical operation spelled one
key at a time.  ``repro.storage.hashstore.SSDHashStore`` now keeps one dict
and a column of per-bucket counts; this model keeps the obvious shape so the
differential suite (``tests/test_hashstore_differential.py``) can hold the
two to the same verdicts, sizes, page and flush counts, write-buffer fill and
per-bucket entry counts.  Keys are 20-byte digests, placed by the same rule,
derived here independently: the digest's trailing 8 bytes as a big-endian
integer modulo ``num_buckets``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple


class BucketDictStore:
    def __init__(self, num_buckets: int, page_size: int, entry_size: int,
                 write_buffer_pages: int) -> None:
        self.num_buckets = num_buckets
        self.entries_per_page = max(1, page_size // entry_size)
        self.write_buffer_pages = write_buffer_pages
        self.buckets: List[Dict[bytes, Any]] = [dict() for _ in range(num_buckets)]
        self.buffered_entries = 0
        self.page_reads = 0
        self.page_writes = 0
        self.buffer_flushes = 0

    def bucket_of(self, key: bytes) -> int:
        assert len(key) == 20, key
        return int.from_bytes(key[12:20], "big") % self.num_buckets

    # -- logical operations ------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.buckets)

    def __contains__(self, key: bytes) -> bool:
        return key in self.buckets[self.bucket_of(key)]

    def get(self, key: bytes, default: Any = None) -> Any:
        return self.buckets[self.bucket_of(key)].get(key, default)

    def put(self, key: bytes, value: Any) -> bool:
        bucket = self.buckets[self.bucket_of(key)]
        is_new = key not in bucket
        bucket[key] = value
        if is_new:
            self.buffered_entries += 1
        return is_new

    def put_many_verdicts(self, pairs: Iterable[Tuple[bytes, Any]]):
        new_keys, existing_keys = [], []
        for key, value in pairs:
            (new_keys if self.put(key, value) else existing_keys).append(key)
        return new_keys, existing_keys

    def remove(self, key: bytes) -> bool:
        bucket = self.buckets[self.bucket_of(key)]
        if key in bucket:
            del bucket[key]
            return True
        return False

    def fill(self, keys: Sequence[bytes], values: Sequence[Any]) -> None:
        """Recovery's put: already on flash, so the write buffer does not move."""
        for key, value in zip(keys, values):
            self.buckets[self.bucket_of(key)][key] = value

    def items(self) -> Dict[bytes, Any]:
        return {key: value for bucket in self.buckets for key, value in bucket.items()}

    def bucket_counts(self) -> List[int]:
        return [len(bucket) for bucket in self.buckets]

    # -- I/O cost model ----------------------------------------------------------
    def lookup_io(self, key: bytes) -> int:
        """Pages a lookup of ``key`` reads: its bucket's chain, at least one."""
        entries = len(self.buckets[self.bucket_of(key)])
        pages = max(1, -(-entries // self.entries_per_page))
        self.page_reads += pages
        return pages

    def insert_io(self) -> Tuple[int, bool]:
        """``(pages written, sequential)`` for one insert under the write buffer."""
        if self.write_buffer_pages <= 0:
            self.page_writes += 1
            return 1, False
        if self.buffered_entries >= self.entries_per_page:
            pages = min(self.buffered_entries // self.entries_per_page, self.write_buffer_pages)
            self.buffered_entries -= pages * self.entries_per_page
            self.page_writes += pages
            self.buffer_flushes += 1
            return pages, True
        return 0, True
