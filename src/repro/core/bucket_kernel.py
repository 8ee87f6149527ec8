"""Fused per-batch lookup kernels for the hybrid hash node.

The paper's Figure-4 flow -- RAM LRU, bloom guard, SSD table, insert --
reads best one fingerprint at a time, with a handful of Python calls per
tier; that spelling is the oracle in ``tests/oracles/node_reference.py``.
This module exec-generates the same flow as one loop over a whole
:class:`~repro.core.digest_batch.DigestBatch` per bloom shape
``(num_bits, num_hashes)`` -- the same technique as the storage kernels --
with:

* the bloom probe unrolled inline over the batch's hash words (one
  ``struct.unpack`` for the whole batch, early exit on the first zero bit,
  the probe step only derived once the first bit passes); shapes past
  :data:`FUSED_MAX_HASHES` rounds get the same walk as a loop instead of
  an unrolled ladder -- same template, same outputs;
* the SSD store probe and known-new insert inlined against the store's
  table and per-bucket count column with the exact page/write-buffer
  arithmetic of
  ``lookup_io`` / ``put`` + ``insert_io`` (the store hands its raw state to
  the kernel via :meth:`~repro.storage.hashstore.SSDHashStore.batch_state`
  and takes the deltas back via
  :meth:`~repro.storage.hashstore.SSDHashStore.settle_batch`);
* service times accumulated in the same float association order as the
  per-fingerprint flow, so they stay bit-identical (pinned by the
  differential suite in tests/test_vectorized_kernels.py).

One contract, one kernel
------------------------
The kernel emits three per-batch outputs: a **tier code** per key
(:data:`~repro.core.protocol.SERVED_FROM_TIER` index: ``0`` new, ``1``
RAM, ``2`` SSD -- truthiness is the duplicate verdict), a service time per
key, and the new ``(digest, chunk_size)`` pairs.  ``LookupReply`` /
``LookupResult`` objects are views built outside the kernel by whoever
needs them.  One kernel exists per shape.

The bloom verdict of a stored digest comes from the table
---------------------------------------------------------
Every write path keeps ``store`` a subset of ``bloom`` (this kernel's own
inserts, ``finish_replica_inserts`` after the cluster's replica
``put_many_verdicts``, ``import_entries``, recovery's image + tail
replay; ``remove_entries`` leaves bits set -- pinned by the property in
tests/test_properties.py).  So for a digest the table
holds, the probe walk would answer ``True`` and mutate nothing: the kernel
asks the table first -- the probe the SSD stage makes anyway -- and only
walks the bloom bits for digests the table does not hold.  A batch of RAM
hits and stored duplicates never unpacks its hash words.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["fused_kernel", "FUSED_MAX_HASHES"]

#: Shapes with more probe rounds than this get a looped probe block instead
#: of the unrolled ladder (mirrors the storage kernels' unroll bound).
FUSED_MAX_HASHES = 16

_FUSED_CACHE: dict = {}


def _probe_block(num_hashes: int, pad: str) -> list:
    """Early-exit bloom probe fused with the negative-path insert.

    ``while 1`` + ``break`` gives the per-key early exit without a helper
    function call; the probe step is only computed after the first bit
    passes, so definite negatives (the common shortcut) pay one modulo.
    A key that misses any probe bit is definitely new, so the remaining
    bloom bits are set right at the break site: the bits already walked
    are known set, and a separate insert pass would re-derive index and
    step from scratch.  False positives need no insert at all -- every
    one of their bits is set by definition.
    """
    inner = pad + "    "
    tail = inner + "    "
    if num_hashes > FUSED_MAX_HASHES:
        # Same walk as a loop: on the first zero bit, restart from the
        # first index and set all rounds (re-setting a set bit is a no-op,
        # so the final bit state matches the unrolled ladder's).
        return [
            f"{pad}index = first = words[wi] % nb",
            f"{pad}step = (words[wi + 1] | 1) % nb",
            f"{pad}in_bloom = True",
            f"{pad}for _ in range({num_hashes}):",
            f"{inner}if not bits[index >> 3] & (1 << (index & 7)):",
            f"{tail}index = first",
            f"{tail}for _ in range({num_hashes}):",
            f"{tail}    bits[index >> 3] |= 1 << (index & 7)",
            f"{tail}    index += step",
            f"{tail}    if index >= nb: index -= nb",
            f"{tail}in_bloom = False",
            f"{tail}break",
            f"{inner}index += step",
            f"{inner}if index >= nb: index -= nb",
        ]
    lines = [f"{pad}index = words[wi] % nb", f"{pad}while 1:"]
    for i in range(num_hashes):
        lines.append(f"{inner}if not bits[index >> 3] & (1 << (index & 7)):")
        lines.append(f"{tail}bits[index >> 3] |= 1 << (index & 7)")
        if i == 0 and num_hashes > 1:
            lines.append(f"{tail}step = (words[wi + 1] | 1) % nb")
        for _ in range(i + 1, num_hashes):
            lines.append(f"{tail}index += step")
            lines.append(f"{tail}if index >= nb: index -= nb")
            lines.append(f"{tail}bits[index >> 3] |= 1 << (index & 7)")
        lines.append(f"{tail}in_bloom = False")
        lines.append(f"{tail}break")
        if i < num_hashes - 1:
            if i == 0:
                lines.append(f"{inner}step = (words[wi + 1] | 1) % nb")
            lines.append(f"{inner}index += step")
            lines.append(f"{inner}if index >= nb: index -= nb")
    lines.append(f"{inner}in_bloom = True")
    lines.append(f"{inner}break")
    return lines


#: The store's placement rule (:meth:`SSDHashStore.bucket_of`), inlined.
_BUCKET = "bucket = from_bytes(digest[-8:], 'big') % store_num_buckets"


def _cache_insert_block(pad: str) -> list:
    """Inlined :meth:`~repro.storage.lru.LRUCache.put` for a known-absent key.

    Insertions/evictions are accumulated in locals and settled per batch by
    the caller, which also counts each eviction as a destage.
    """
    return [
        f"{pad}cached[digest] = True",
        f"{pad}cache_insertions += 1",
        f"{pad}if len(cached) > cache_capacity:",
        f"{pad}    cache_popitem(False)",
        f"{pad}    cache_evictions += 1",
    ]


def _kernel_source(num_bits: int, num_hashes: int) -> str:
    """Source of the fused kernel (see the module docstring for the contract)."""
    lines = [
        "def fused_kernel(",
        "    digests, hash_words, chunk_sizes, cached, move_to_end, cache_popitem,",
        "    cache_capacity,",
        "    bits, table, counts, store_num_buckets, entries_per_page,",
        "    write_buffer_pages, buffered, base_time, page_read_cost,",
        "    page_write_rand_cost, page_write_seq_cost, out, times, new_append,",
        "):",
        f"    nb = {num_bits}",
        "    from_bytes = int.from_bytes",
        "    ssd_hits = new_entries = 0",
        "    bloom_negative_shortcuts = bloom_false_positives = 0",
        "    cache_insertions = cache_evictions = 0",
        "    total_ssd_time = 0.0",
        "    page_reads = page_writes = buffer_flushes = 0",
        "    scalar_size = type(chunk_sizes) is int",
        "    words = None",
        "    for i, digest in enumerate(digests):",
    ]
    # 1. RAM LRU probe.  ``out`` and ``times`` arrive filled with a RAM
    # hit's tier and time, so a hit only refreshes its recency.
    lines += [
        "        if digest in cached:",
        "            move_to_end(digest)",
        "            continue",
    ]
    # 2. Bloom guard.  A stored digest's bits are all set (store is a subset
    # of bloom), so only digests the table does not hold walk the probe
    # sequence; the batch words are derived lazily, by the first that does.
    lines += [
        "        stored = digest in table",
        "        if stored:",
        "            in_bloom = True",
        "        else:",
        "            if words is None:",
        "                words = hash_words()",
        "            wi = i + i",
    ]
    lines += _probe_block(num_hashes, "            ")
    lines.append("        if in_bloom:")
    # 3. SSD probe (lookup_io inlined; membership is ``stored``; the bucket
    # is reused by the false-positive insert).
    lines += [
        "            " + _BUCKET,
        "            pages = -(-counts[bucket] // entries_per_page) or 1",
        "            page_reads += pages",
        "            if pages == 1:",
        "                ssd_time = 0.0 + page_read_cost",
        "            else:",
        "                ssd_time = 0.0",
        "                for _ in range(pages):",
        "                    ssd_time += page_read_cost",
        "            if stored:",
        "                ssd_hits += 1",
    ]
    lines += _cache_insert_block("                ")
    lines += [
        "                out[i] = 2",
        "                times[i] = base_time + ssd_time",
        "                total_ssd_time += ssd_time",
        "                continue",
        "            bloom_false_positives += 1",
        "        else:",
        "            bloom_negative_shortcuts += 1",
        "            ssd_time = 0.0",
        "            " + _BUCKET,
    ]
    # New fingerprint: cache + store insert (put + insert_io inlined for a
    # known-absent key; the bucket was resolved by whichever branch ran
    # above, and the bloom bits were already settled inside the probe block
    # -- negatives set their missing bits at the break site, false
    # positives have every bit set).
    lines.append("        new_entries += 1")
    lines += _cache_insert_block("        ")
    lines += [
        "        chunk_size = chunk_sizes if scalar_size else chunk_sizes[i]",
        "        table[digest] = chunk_size",
        "        counts[bucket] += 1",
        "        new_append((digest, chunk_size))",
        "        if write_buffer_pages > 0:",
        "            buffered += 1",
        "            if buffered >= entries_per_page:",
        "                pages = buffered // entries_per_page",
        "                if pages > write_buffer_pages:",
        "                    pages = write_buffer_pages",
        "                buffered -= pages * entries_per_page",
        "                page_writes += pages",
        "                buffer_flushes += 1",
        "                if pages == 1:",
        "                    insert_time = 0.0 + page_write_seq_cost",
        "                else:",
        "                    insert_time = 0.0",
        "                    for _ in range(pages):",
        "                        insert_time += page_write_seq_cost",
        "                ssd_time += insert_time",
        "        else:",
        "            page_writes += 1",
        "            insert_time = 0.0 + page_write_rand_cost",
        "            ssd_time += insert_time",
        "        out[i] = 0",
        "        times[i] = base_time + ssd_time",
        "        total_ssd_time += ssd_time",
        "    return (len(digests) - ssd_hits - new_entries, ssd_hits, new_entries,",
        "            bloom_negative_shortcuts,",
        "            bloom_false_positives, total_ssd_time, page_reads,",
        "            page_writes, buffer_flushes, buffered,",
        "            cache_insertions, cache_evictions)",
    ]
    return "\n".join(lines)


def fused_kernel(num_bits: int, num_hashes: int) -> Callable:
    """The fused kernel for a bloom shape.

    Cached per shape; cluster nodes share parameters, so each shape
    compiles once.
    """
    shape = (num_bits, num_hashes)
    kernel = _FUSED_CACHE.get(shape)
    if kernel is None:
        namespace: dict = {}
        exec(_kernel_source(num_bits, num_hashes), namespace)  # noqa: S102 - static template
        kernel = _FUSED_CACHE[shape] = namespace["fused_kernel"]
    return kernel
