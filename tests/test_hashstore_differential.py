"""``SSDHashStore`` (one dict + a count column) against the list-of-dicts model.

Tiny geometry on purpose: 1-8 buckets of 2-5 entries per page, keys drawn
from a pool of a few dozen, so multi-page buckets, re-puts, duplicates
inside one call and removals of absent keys are the common case rather than
the corner.  After every operation the two stores must agree on what the
call returned and on everything the cost model can observe.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.bloom_model import BloomModel
from oracles.bucket_store import BucketDictStore
from oracles.set_model import NEW, RAM, NodeModel
from repro.core.config import HashNodeConfig
from repro.core.digest_batch import DigestBatch
from repro.core.hash_node import HybridHashNode
from repro.storage.hashstore import SSDHashStore

ENTRY_SIZE = 48


def _key(identity: int) -> bytes:
    """The 20-byte digest standing for ``identity``."""
    return hashlib.sha1(b"%d" % identity).digest()


identities = st.integers(min_value=0, max_value=40)
pairs = st.lists(st.tuples(identities, st.integers(0, 1 << 40)), max_size=30)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), identities, st.integers(0, 1 << 40)),
        st.tuples(st.just("put_many"), pairs),
        st.tuples(st.just("fill"), pairs),
        st.tuples(st.just("remove"), identities),
        st.tuples(st.just("lookup_io"), identities),
        st.tuples(st.just("insert_io"), identities),
    ),
    max_size=60,
)
geometries = st.tuples(
    st.integers(1, 8),  # num_buckets
    st.integers(2, 5),  # entries per page
    st.sampled_from([0, 1, 2, 64]),  # write_buffer_pages
)


def _assert_same_state(store: SSDHashStore, model: BucketDictStore) -> None:
    assert len(store) == len(model)
    assert dict(store.items()) == model.items()
    assert set(store.keys()) == set(model.items())
    assert list(store._counts) == model.bucket_counts()
    assert (store.page_reads, store.page_writes, store.buffer_flushes) == (
        model.page_reads, model.page_writes, model.buffer_flushes)
    if model.write_buffer_pages > 0:  # unbuffered: nothing reads the fill, the kernel skips it
        assert store._buffered_entries == model.buffered_entries


@settings(max_examples=150, deadline=None)
@given(geometries, operations)
def test_every_operation_matches_the_bucket_dict_model(geometry, script):
    num_buckets, entries_per_page, write_buffer_pages = geometry
    shape = dict(num_buckets=num_buckets, page_size=ENTRY_SIZE * entries_per_page,
                 entry_size=ENTRY_SIZE, write_buffer_pages=write_buffer_pages)
    store, model = SSDHashStore(**shape), BucketDictStore(**shape)
    for name, *arguments in script:
        if name == "put":
            key, value = _key(arguments[0]), arguments[1]
            assert store.put(key, value) == model.put(key, value)
        elif name == "put_many":
            batch = [(_key(identity), value) for identity, value in arguments[0]]
            assert store.put_many_verdicts(batch) == model.put_many_verdicts(batch)
        elif name == "fill":
            keys = [_key(identity) for identity, _value in arguments[0]]
            values = [value for _identity, value in arguments[0]]
            assert store.fill(keys, values) is model.fill(keys, values) is None
        elif name == "remove":
            key = _key(arguments[0])
            assert store.remove(key) == model.remove(key)
        elif name == "lookup_io":
            key = _key(arguments[0])
            reads = store.lookup_io(key)
            assert len(reads) == model.lookup_io(key)
            assert all(op.kind == "read" and op.random_access for op in reads)
            assert (key in store) == (key in model) and store.get(key) == model.get(key)
            assert store.bucket_of(key) == model.bucket_of(key)
        else:
            writes = store.insert_io(_key(arguments[0]))
            pages, sequential = model.insert_io()
            assert len(writes) == pages
            assert all(op.kind == "write" and op.random_access != sequential for op in writes)
        _assert_same_state(store, model)


@settings(max_examples=60, deadline=None)
@given(
    geometries,
    st.integers(1, 4),  # LRU capacity: most repeats reach the store probe
    st.lists(st.lists(identities, min_size=1, max_size=40), min_size=1, max_size=4),
)
def test_fused_kernel_batches_match_the_model_key_by_key(geometry, lru_capacity, batches):
    """``batch_state`` + ``settle_batch`` (through the node) vs one call per key.

    The tier of every key comes from the set model, the bloom verdict that
    decides whether a new key pays a probe from the bloom model; the store
    model is then driven with ``lookup_io`` / ``put`` + ``insert_io`` exactly
    where the Figure-4 flow reaches the SSD.
    """
    num_buckets, entries_per_page, write_buffer_pages = geometry
    config = HashNodeConfig(
        ram_cache_entries=lru_capacity, bloom_expected_items=64, ssd_buckets=num_buckets,
        ssd_page_size=ENTRY_SIZE * entries_per_page, ssd_entry_size=ENTRY_SIZE,
        ssd_write_buffer_pages=write_buffer_pages)
    node = HybridHashNode("differential", config=config)
    model = BucketDictStore(num_buckets, config.ssd_page_size, ENTRY_SIZE, write_buffer_pages)
    verdicts = NodeModel(lru_capacity)
    bloom = BloomModel(node.bloom.num_bits, node.bloom.num_hashes)
    for batch in batches:
        digests = [_key(identity) for identity in batch]
        tiers = node.serve_bucket_verdicts(DigestBatch.from_blob(b"".join(digests), 7))[0]
        expected, _new_pairs = verdicts.serve((digest, 7) for digest in digests)
        assert tiers == expected
        for digest, tier in zip(digests, expected):
            if tier == RAM:
                continue
            if tier != NEW or bloom.contains_many([digest])[0]:
                model.lookup_io(digest)
            if tier == NEW:
                assert model.put(digest, 7)
                model.insert_io()
                bloom.add_many([digest])
        _assert_same_state(node.store, model)


def test_one_bucket_counts_past_65535():
    """A one-bucket store keeps every entry in bucket 0: the column is 32-bit."""
    store = SSDHashStore(num_buckets=1, page_size=4096, entry_size=48)
    entries = 65_537
    store.put_many_verdicts((identity.to_bytes(20, "big"), 1) for identity in range(entries))
    assert len(store) == store._counts[0] == entries
    assert len(store.lookup_io(bytes(20))) == -(-entries // store.entries_per_page)
    assert store.remove(bytes(20)) and store._counts[0] == entries - 1
