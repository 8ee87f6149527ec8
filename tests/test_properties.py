"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.hash_node import HybridHashNode
from repro.core.partition import ConsistentHashRing, RangePartitioner
from repro.dedup.archive import DirectoryArchiver
from repro.dedup.chunking import ContentDefinedChunker, FixedSizeChunker
from repro.dedup.fingerprint import fingerprint_data, synthetic_fingerprint
from repro.dedup.index import InMemoryChunkIndex
from repro.storage.bloom import BloomFilter
from repro.storage.cuckoo import CuckooHashTable
from repro.storage.hashstore import SSDHashStore
from repro.storage.lru import LRUCache
from repro.storage.object_store import CloudObjectStore

# Keep generated examples small enough that the whole module stays fast.
FAST = settings(max_examples=40, deadline=None)

keys = st.binary(min_size=20, max_size=20)
key_lists = st.lists(keys, min_size=1, max_size=120)


class TestBloomProperties:
    @FAST
    @given(key_lists)
    def test_no_false_negatives_ever(self, inserted):
        bloom = BloomFilter(expected_items=512, false_positive_rate=0.01)
        for key in inserted:
            bloom.add(key)
        assert all(key in bloom for key in inserted)


class TestLRUProperties:
    @FAST
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers()), max_size=200), st.integers(1, 16))
    def test_size_never_exceeds_capacity_and_matches_reference(self, operations, capacity):
        cache = LRUCache(capacity)
        reference: dict = {}
        order: list = []
        for key, value in operations:
            cache.put(key, value)
            if key in reference:
                order.remove(key)
            reference[key] = value
            order.append(key)
            if len(order) > capacity:
                evicted = order.pop(0)
                del reference[evicted]
            assert len(cache) <= capacity
        assert set(iter(cache)) == set(reference)
        for key, value in reference.items():
            assert cache.peek(key) == value

    @FAST
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=200), st.integers(1, 8))
    def test_most_recently_touched_key_is_never_the_next_eviction(self, touches, capacity):
        cache = LRUCache(capacity)
        for key in touches:
            cache.put(key)
            assert cache.mru_key() == key
            if len(cache) > 1:
                assert cache.lru_key() != key


class TestHashStoreProperties:
    @FAST
    @given(st.dictionaries(keys, st.integers(), max_size=150))
    def test_behaves_like_a_dict(self, mapping):
        store = SSDHashStore(num_buckets=64)
        table = CuckooHashTable(initial_buckets=16)
        for key, value in mapping.items():
            store.put(key, value)
            table.put(key, value)
        assert len(store) == len(mapping)
        assert len(table) == len(mapping)
        for key, value in mapping.items():
            assert store.get(key) == value
            assert table.get(key) == value
        assert dict(store.items()) == mapping
        assert dict(table.items()) == mapping

    @FAST
    @given(st.lists(keys, min_size=1, max_size=100), st.data())
    def test_removal_really_removes(self, inserted, data):
        store = SSDHashStore(num_buckets=32)
        for key in inserted:
            store.put(key, True)
        victim = data.draw(st.sampled_from(inserted))
        store.remove(victim)
        assert victim not in store


class TestChunkingProperties:
    @FAST
    @given(st.binary(max_size=30_000))
    def test_fixed_chunks_reconstruct_input(self, data):
        chunks = list(FixedSizeChunker(512).chunk(data))
        assert b"".join(chunk.data for chunk in chunks) == data
        assert all(chunk.size <= 512 for chunk in chunks)

    @FAST
    @given(st.binary(max_size=30_000))
    def test_content_defined_chunks_reconstruct_input(self, data):
        chunker = ContentDefinedChunker(average_size=512)
        chunks = list(chunker.chunk(data))
        assert b"".join(chunk.data for chunk in chunks) == data
        for chunk in chunks[:-1]:
            assert chunk.size <= chunker.max_size

    @FAST
    @given(st.binary(min_size=1, max_size=5_000))
    def test_fingerprints_are_deterministic(self, data):
        assert fingerprint_data(data) == fingerprint_data(data)


class TestPartitionProperties:
    @FAST
    @given(st.integers(1, 12), st.lists(st.integers(0, 10_000), min_size=1, max_size=100))
    def test_every_fingerprint_has_one_owner_in_the_cluster(self, num_nodes, identities):
        nodes = [f"n{i}" for i in range(num_nodes)]
        range_partitioner = RangePartitioner(nodes)
        ring = ConsistentHashRing(nodes, virtual_nodes=16)
        for identity in identities:
            fingerprint = synthetic_fingerprint(identity)
            assert range_partitioner.owner(fingerprint) in nodes
            assert ring.owner(fingerprint) in nodes

    @FAST
    @given(st.integers(2, 8), st.lists(st.integers(0, 10_000), min_size=1, max_size=60), st.integers(1, 4))
    def test_replica_sets_are_distinct_and_led_by_the_owner(self, num_nodes, identities, factor):
        nodes = [f"n{i}" for i in range(num_nodes)]
        ring = ConsistentHashRing(nodes, virtual_nodes=16)
        for identity in identities:
            fingerprint = synthetic_fingerprint(identity)
            owners = ring.owners(fingerprint, factor)
            assert owners[0] == ring.owner(fingerprint)
            assert len(owners) == len(set(owners)) == min(factor, num_nodes)


class TestDedupProperties:
    @FAST
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
    def test_cluster_agrees_with_oracle_on_every_lookup(self, identities):
        cluster = SHHCCluster(
            ClusterConfig(
                num_nodes=3,
                node=HashNodeConfig(ram_cache_entries=64, bloom_expected_items=5_000, ssd_buckets=256),
            )
        )
        oracle = InMemoryChunkIndex()
        for identity in identities:
            fingerprint = synthetic_fingerprint(identity)
            assert (
                cluster.lookup(fingerprint).is_duplicate
                == oracle.lookup(fingerprint).is_duplicate
            )
        assert len(cluster) == len(oracle)

    @FAST
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=200), st.integers(2, 64))
    def test_node_verdicts_independent_of_cache_size(self, identities, cache_entries):
        reference = HybridHashNode(
            "ref", HashNodeConfig(ram_cache_entries=10_000, bloom_expected_items=5_000, ssd_buckets=256)
        )
        node = HybridHashNode(
            "n", HashNodeConfig(ram_cache_entries=cache_entries, bloom_expected_items=5_000, ssd_buckets=256)
        )
        for identity in identities:
            fingerprint = synthetic_fingerprint(identity)
            assert node.lookup(fingerprint).is_duplicate == reference.lookup(fingerprint).is_duplicate

    @FAST
    @given(st.lists(st.binary(min_size=1, max_size=600), min_size=1, max_size=12))
    def test_pipeline_restores_exactly_what_was_backed_up(self, objects):
        archiver = DirectoryArchiver(InMemoryChunkIndex(), CloudObjectStore(), FixedSizeChunker(64))
        for index, data in enumerate(objects):
            archiver.backup_files({"object": data}, f"snapshot-{index}")
        for index, data in enumerate(objects):
            assert archiver.restore_file(f"snapshot-{index}", "object") == data

    @FAST
    @given(st.binary(min_size=1, max_size=2_000), st.integers(2, 6))
    def test_repeated_backups_never_grow_physical_storage(self, data, copies):
        store = CloudObjectStore()
        archiver = DirectoryArchiver(InMemoryChunkIndex(), store, FixedSizeChunker(128))
        archiver.backup_files({"copy": data}, "copy-0")
        physical = store.total_bytes()
        for index in range(1, copies):
            stats = archiver.backup_files({"copy": data}, f"copy-{index}")
            assert stats.bytes_uploaded == 0
            assert store.total_bytes() == physical


def _key(identity: int) -> bytes:
    """The synthetic digest for ``identity``."""
    return synthetic_fingerprint(identity).digest


#: Identities a lookup step draws; an import also draws past them, keys with
#: values of their own that no lookup ever touches.
_LOOKED_UP = 60

_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), st.integers(0, _LOOKED_UP)),
        # One acknowledged batch, mixing keys lookups see and keys they never do.
        st.tuples(st.just("import"),
                  st.lists(st.integers(0, 2 * _LOOKED_UP), min_size=1, max_size=6)),
        st.tuples(st.just("remove"), st.integers(0, _LOOKED_UP)),
    ),
    min_size=1, max_size=120,
)


_IDENTITIES = st.integers(0, 40)
_IDENTITY_LISTS = st.lists(_IDENTITIES, min_size=1, max_size=12)
_WRITE_STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["serve", "propagate", "import"]), _IDENTITY_LISTS),
        st.tuples(st.sampled_from(["lookup", "replica", "remove"]), _IDENTITIES),
        # Warm = image + log tail; the rest are the ways the image is refused.
        st.tuples(
            st.just("restart"),
            st.sampled_from(["warm", "image deleted", "image of another geometry", "torn log tail"]),
        ),
    ),
    min_size=1, max_size=40,
)


class TestStoreIsASubsetOfBloom:
    """The invariant the fused kernel's bloom stage rests on.

    The kernel answers ``in_bloom = True`` for any digest the table holds
    without walking its bits (``core/bucket_kernel.py``), which equals the
    walk only while every write path that stores a digest also sets its
    bloom bits -- across kills, and whatever recovery finds on disk.
    """

    @settings(max_examples=60, deadline=None)
    @given(_WRITE_STEPS, st.sampled_from([0, 3]), st.integers(0, 64))
    # Twelve new keys are checkpointed, two more are only logged: the warm
    # restart restores the image and replays a tail, then every key is served.
    @example(
        [("serve", list(range(12))), ("import", [20, 21]), ("restart", "warm"),
         ("serve", list(range(22)))],
        3, 0,
    )
    def test_every_stored_key_is_in_the_bloom_after_every_step(self, steps, snapshot_every, torn):
        import os
        import tempfile

        from repro.core.digest_batch import DigestBatch
        from repro.core.persistence import NodePersistence

        # A tiny LRU and filter: stored duplicates fall out of RAM and new
        # keys meet false positives, so the kernel takes every branch.
        config = HashNodeConfig(ram_cache_entries=4, bloom_expected_items=64, ssd_buckets=8)

        def pairs(identities):
            return [(synthetic_fingerprint(i).digest, 8192) for i in identities]

        with tempfile.TemporaryDirectory() as directory, NodePersistence(
            directory, snapshot_every=snapshot_every
        ) as persistence:
            header = persistence.container.size
            node = HybridHashNode("node", config, persistence=persistence)
            for kind, argument in steps:
                if kind == "serve":
                    blob = b"".join(digest for digest, _size in pairs(argument))
                    node.serve_bucket_verdicts(DigestBatch.from_blob(blob, 8192))
                elif kind == "lookup":
                    node.lookup(synthetic_fingerprint(argument))
                elif kind in ("replica", "propagate"):
                    # SHHCCluster._propagate_new_groups, per node: one pair
                    # per new verdict on the single-key paths, a bucket's
                    # new pairs on the routed core.
                    keys = [argument] if kind == "replica" else argument
                    new_digests, _existing = node.store.put_many_verdicts(pairs(keys))
                    node.finish_replica_inserts(new_digests)
                elif kind == "import":
                    node.import_entries(pairs(argument))
                elif kind == "remove":
                    node.remove_entries([synthetic_fingerprint(argument).digest])
                else:
                    node.kill()
                    if argument == "image deleted" and os.path.exists(persistence.snapshot_path):
                        os.remove(persistence.snapshot_path)
                    elif argument == "image of another geometry":
                        persistence.take_snapshot(BloomFilter(num_bits=128, num_hashes=2))
                    elif argument == "torn log tail":
                        size = persistence.container.size
                        cut = min(torn, size - header)
                        with open(persistence.container.path, "r+b") as log:
                            log.truncate(size - cut)
                    report = node.restart()
                    if argument.startswith("image"):
                        assert not report.snapshot_loaded
                assert all(key in node.bloom for key in node.store.keys()), (kind, argument)


class _Crash(Exception):
    """The process dies inside a checkpoint."""


#: How far a checkpoint taken at the kill got before the process died: not
#: begun, ``.tmp`` torn, ``.tmp`` complete and fsynced but not renamed, renamed.
CHECKPOINT_STAGES = ("none", "tmp-torn", "tmp-fsynced", "renamed")


class TestCrashRecoveryProperties:
    """Kill/restart crash consistency: no acknowledged insert is ever lost."""

    @pytest.mark.parametrize("new_process", [False, True], ids=["restart", "new-process"])
    @pytest.mark.parametrize("checkpoint_stage", CHECKPOINT_STAGES)
    @settings(max_examples=40, deadline=None)
    @given(
        _STEPS,
        st.integers(0, 120),
        st.sampled_from([0, 8, 64]),
        st.integers(0, 1 << 16),
    )
    def test_restart_at_any_offset_loses_no_acknowledged_insert(
        self, checkpoint_stage, new_process, steps, kill_offset, snapshot_every, torn_at
    ):
        """Killed after any prefix and restarted == a twin that never crashed.

        At the kill a checkpoint reaches ``checkpoint_stage``: none taken,
        its ``.tmp`` torn (a prefix of the image bytes, ``torn_at`` long
        modulo its size), the ``.tmp`` complete and fsynced but never
        renamed, or renamed into place.  Recovery must load the renamed
        image, otherwise the previous one (or replay cold), and leave no
        ``.tmp`` behind.  ``new_process`` restarts through fresh objects
        (the open-time scan) instead of :meth:`HybridHashNode.restart`
        (the in-process rescan).
        """
        import os
        import tempfile
        from unittest import mock

        from repro.core import persistence as persistence_module
        from repro.core.persistence import NodePersistence
        from repro.storage import snapshot as snapshot_module
        from repro.storage.snapshot import read_snapshot

        config = HashNodeConfig(
            ram_cache_entries=64, bloom_expected_items=2_048, ssd_buckets=128
        )
        twin = HybridHashNode("twin", config)  # never crashes, no persistence
        kill_offset = min(kill_offset, len(steps))
        with tempfile.TemporaryDirectory() as directory:
            persistence = NodePersistence(directory, snapshot_every=snapshot_every)
            node = HybridHashNode("node", config, persistence=persistence)

            def crash_in_checkpoint():
                """Die at ``checkpoint_stage``; returns the records of the image recovery must load."""
                path = persistence.snapshot_path
                previous = read_snapshot(path)[0]["records"] if os.path.exists(path) else None
                if checkpoint_stage == "none":
                    return previous
                real_replace = os.replace

                def replace(source, target):
                    if checkpoint_stage == "renamed":
                        real_replace(source, target)
                    raise _Crash

                with mock.patch.object(snapshot_module.os, "replace", replace), \
                        pytest.raises(_Crash):
                    persistence.take_snapshot(node.bloom, entries=len(node.store))
                if checkpoint_stage == "renamed":
                    return persistence.records
                if checkpoint_stage == "tmp-torn":
                    with open(path + ".tmp", "r+b") as tmp:
                        tmp.truncate(torn_at % os.path.getsize(path + ".tmp"))
                return previous

            def crash_and_restart():
                nonlocal node, persistence
                expected_image = crash_in_checkpoint()
                loaded = []  # records covered by each image recovery read

                def spy_read(path, *args, **kwargs):
                    meta, payload = real_read(path, *args, **kwargs)
                    loaded.append(meta["records"])
                    return meta, payload

                real_read = persistence_module.read_snapshot
                with mock.patch.object(persistence_module, "read_snapshot", spy_read):
                    node.kill()
                    if new_process:
                        persistence.close()
                        persistence = NodePersistence(directory, snapshot_every=snapshot_every)
                        node = HybridHashNode("node", config, persistence=persistence)
                        report = node.last_recovery
                    else:
                        report = node.restart()
                if report is None:
                    assert new_process and not persistence.records  # a first start
                else:
                    assert report.truncated_bytes == 0
                    assert report.snapshot_loaded == (expected_image is not None)
                    assert loaded == ([] if expected_image is None else [expected_image])
                assert not os.path.exists(persistence.snapshot_path + ".tmp")
                # Zero lost acknowledged inserts at ANY kill offset, and
                # nothing resurrected: exactly the never-crashed twin.
                assert dict(node.store.items()) == dict(twin.store.items())
                assert all(key in node.bloom for key in twin.store.keys())

            for position, (kind, argument) in enumerate(steps + [("stop", None)]):
                if position == kill_offset:
                    crash_and_restart()
                if kind == "lookup":
                    fingerprint = synthetic_fingerprint(argument)
                    reply = node.lookup(fingerprint)
                    # Verdicts keep matching a node that never crashed.
                    assert reply.is_duplicate == twin.lookup(fingerprint).is_duplicate
                elif kind == "import":
                    # (A key lookups see carries the chunk size a lookup of the
                    # same identity stores: a put of a held key is not re-logged.)
                    entries = [(_key(identity), 8192 if identity <= _LOOKED_UP else identity)
                               for identity in argument]
                    assert node.import_entries(entries) == twin.import_entries(entries)
                elif kind == "remove":
                    digests = [synthetic_fingerprint(argument).digest]
                    assert node.remove_entries(digests) == twin.remove_entries(digests)
            # The restarted node converges to the never-crashed twin.
            assert dict(node.store.items()) == dict(twin.store.items())
            persistence.close()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.lists(st.integers(0, 40), min_size=1, max_size=5)),
            min_size=1, max_size=12,
        ),
        st.data(),
    )
    def test_one_flipped_bit_costs_exactly_the_frames_from_the_damage_on(self, batches, data):
        """Recovery yields the frames before a flipped bit, and repairs the log."""
        import os
        import tempfile

        from repro.core.persistence import NodePersistence
        from repro.storage.fplog import LogFormatError

        config = HashNodeConfig(
            ram_cache_entries=64, bloom_expected_items=2_048, ssd_buckets=128
        )
        with tempfile.TemporaryDirectory() as directory:
            # One append = one frame (puts or removes); remember each frame's
            # end and the store a replay up to it must produce.
            boundaries, states, model = [], [], {}
            with NodePersistence(directory) as persistence:
                header = persistence.container.size
                for is_put, identities in batches:
                    keys = [_key(identity) for identity in identities]
                    if is_put:
                        persistence.log_insert_many(zip(keys, identities))
                        model.update(zip(keys, identities))
                    else:
                        persistence.log_remove_many(keys)
                        for key in keys:
                            model.pop(key, None)
                    boundaries.append(persistence.container.size)
                    states.append(dict(model))
                path = persistence.container.path
            size = os.path.getsize(path)
            assert size == boundaries[-1]

            offset = data.draw(st.integers(0, size - 1), label="damaged byte")
            blob = bytearray(open(path, "rb").read())
            blob[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
            open(path, "wb").write(bytes(blob))

            if offset < header:
                # Not (this version of) our file any more: refused, untouched.
                with pytest.raises(LogFormatError):
                    NodePersistence(directory)
                assert open(path, "rb").read() == bytes(blob)
                return
            damaged = next(i for i, end in enumerate(boundaries) if offset < end)
            good_end = boundaries[damaged - 1] if damaged else header
            expected = states[damaged - 1] if damaged else {}
            node = HybridHashNode("node", config)
            with NodePersistence(directory) as persistence:
                report = persistence.recover_into(node)
                assert report.truncated_bytes == size - good_end
                assert dict(node.store.items()) == expected
                assert all(key in node.bloom for key in expected)
                # The next append lands on a frame boundary ...
                assert os.path.getsize(path) == persistence.container.size == good_end
                persistence.log_insert(_key(1000), 7)
            # ... so a second recovery is clean and sees it.
            again = HybridHashNode("node", config)
            with NodePersistence(directory) as persistence:
                report = persistence.recover_into(again)
            assert report.truncated_bytes == 0
            assert dict(again.store.items()) == {**expected, _key(1000): 7}
