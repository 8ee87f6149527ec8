"""Differential suite for the vectorized data plane.

Every packed/fused fast path must be byte-identical to its reference:

* bloom ``add_many``/``contains_many`` -- by the packed route and the
  key-by-key route -- vs per-key ``add``/``in`` **and** the
  closed-form model in ``tests/oracles/bloom_model.py``, over unrolled and
  looped shapes, and every way a batch is handed
  over (list, tuple, generator, ``DigestBatch``); keys that are not all
  20 bytes are refused on every route, and by a ``DigestBatch`` built
  directly from them;
* the node's one batch contract (``serve_bucket_verdicts``), also lifted
  to replies (``oracles.replies.node_lookup_batch``), vs the
  per-fingerprint Figure-4 flow of ``tests/oracles/node_reference.py`` on a
  twin node --
  replies field for field, float service times, counters, store stats,
  bloom bits, LRU order -- and vs the dict-and-set model in
  ``tests/oracles/set_model.py`` (tiers, new pairs, per-tier counts), for
  an unrolled and a looped-probe bloom shape, scalar and per-digest chunk
  sizes, both spellings of the kernel's RAM probe (and the node's choice
  between them), and the persistence log across kill/restart;
* the packed trace cache vs running the generator directly.

Plus the named satellite regression test (fill_ratio big-int
materialization) and a subprocess guard that the data plane imports no
numpy.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import node_reference
from oracles.bloom_model import BloomModel
from oracles.replies import LookupReply, node_lookup, node_lookup_batch
from oracles.set_model import NodeModel

from repro.core.config import HashNodeConfig
from repro.core.digest_batch import DigestBatch
from repro.core.hash_node import HybridHashNode
from repro.core.persistence import NodePersistence
from repro.core.protocol import SERVED_FROM_TIER
from repro.dedup.fingerprint import Fingerprint
from repro.storage.bloom import BloomFilter
from repro.workloads import trace_cache
from repro.workloads.profiles import TABLE_I_PROFILES
from repro.workloads.traces import TraceGenerator

FAST = settings(max_examples=40, deadline=None)
SLOWER = settings(max_examples=15, deadline=None)

digests = st.binary(min_size=20, max_size=20)
digest_lists = st.lists(digests, min_size=1, max_size=80)
# Keys that are not all 20 bytes must be refused -- also when their lengths
# happen to sum to a multiple of 20.
mixed_key_lists = st.lists(
    st.one_of(digests, st.binary(min_size=3, max_size=30)), min_size=1, max_size=80
)
geometries = st.tuples(st.integers(64, 4096), st.integers(1, 8))
# Shapes past the unroll bound get the walk as a loop, per key only.
wide_geometries = st.tuples(st.integers(64, 1024), st.integers(17, 20))


def _with_duplicates(keys):
    """Guarantee in-batch duplicates (the kernels must handle them)."""
    return keys + keys[: max(1, len(keys) // 2)]


# --------------------------------------------------------------------------- bloom
def _as_digest_batch(keys):
    return DigestBatch.from_blob(b"".join(keys), 4096)


#: Ways a key list reaches ``add_many``/``contains_many``; the route the
#: filter picks for each must not change bits, count or verdicts.
HANDOVERS = (list, tuple, iter)


def _assert_batch_matches_references(batched, keys, handover=list):
    """``add_many``/``contains_many`` vs per-key ``add``/``in`` and the model."""
    shape = dict(num_bits=batched.num_bits, num_hashes=batched.num_hashes)
    per_key = BloomFilter(**shape)
    model = BloomModel(**shape)
    batched.add_many(handover(keys))
    for key in keys:
        per_key.add(key)
    model.add_many(keys)
    assert bytes(batched.raw_bits()) == bytes(per_key.raw_bits()) == model.bits()
    assert batched.count == per_key.count == model.count
    probes = list(keys) + [os.urandom(20) for _ in range(16)]
    verdicts = batched.contains_many(handover(probes))
    assert verdicts == [key in per_key for key in probes] == model.contains_many(probes)


class TestBloomPackedDifferential:
    @FAST
    @given(geometries, digest_lists)
    def test_add_and_contains_match_scalar_oracle(self, geometry, keys):
        num_bits, num_hashes = geometry
        for handover in HANDOVERS:
            _assert_batch_matches_references(
                BloomFilter(num_bits=num_bits, num_hashes=num_hashes),
                _with_duplicates(keys),
                handover,
            )

    @SLOWER
    @given(wide_geometries, digest_lists)
    def test_wide_shapes_fall_back_and_agree(self, geometry, keys):
        num_bits, num_hashes = geometry
        for handover in (list, _as_digest_batch):
            _assert_batch_matches_references(
                BloomFilter(num_bits=num_bits, num_hashes=num_hashes), keys, handover
            )

    @FAST
    @given(digest_lists)
    def test_digest_batch_and_blob_paths_match_lists(self, keys):
        _assert_batch_matches_references(
            BloomFilter(num_bits=2048, num_hashes=5), keys, _as_digest_batch
        )

    @FAST
    @given(st.one_of(geometries, wide_geometries), mixed_key_lists)
    @example((512, 3), [b"a" * 10, b"b" * 30])  # lengths sum to 2 x 20
    def test_keys_that_are_not_all_digests_are_refused(self, geometry, keys):
        assume(any(len(key) != 20 for key in keys))
        num_bits, num_hashes = geometry
        for handover in HANDOVERS:
            bloom = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
            with pytest.raises(ValueError):
                bloom.contains_many(handover(keys))
            with pytest.raises(ValueError):
                bloom.add_many(handover(keys))

    @FAST
    @given(mixed_key_lists)
    @example([bytes(20), b"short", bytes(20)])  # the node's kernel raised struct.error
    @example([b"a" * 10, b"b" * 30])  # contains_many read this as two digests
    def test_a_batch_built_from_keys_that_are_not_all_digests_is_refused(self, keys):
        assume(any(len(key) != 20 for key in keys))
        with pytest.raises(ValueError):
            DigestBatch(keys, 7)

    @FAST
    @given(digest_lists)
    def test_a_batch_built_from_digests_equals_the_wire_batch(self, keys):
        built, wired = DigestBatch(list(keys), 7), DigestBatch.from_blob(b"".join(keys), 7)
        assert built.packed() == wired.packed()
        assert built.hash_words() == wired.hash_words()
        bloom = BloomFilter(num_bits=2048, num_hashes=5)
        bloom.add_many(keys[::2])
        assert bloom.contains_many(built) == bloom.contains_many(wired)

    @FAST
    @given(digest_lists, digest_lists)
    def test_reuse_after_clear_matches_fresh(self, first, second):
        reused = BloomFilter(num_bits=1024, num_hashes=4)
        reused.add_many(first)
        reused.clear()
        reused.add_many(second)
        fresh = BloomFilter(num_bits=1024, num_hashes=4)
        fresh.add_many(second)
        assert bytes(reused.raw_bits()) == bytes(fresh.raw_bits())
        assert reused.count == fresh.count

    @FAST
    @given(digest_lists)
    def test_fill_ratio_matches_per_bit_reference(self, keys):
        bloom = BloomFilter(num_bits=1024, num_hashes=4)
        bloom.add_many(keys)
        reference = sum(bin(byte).count("1") for byte in bytes(bloom.raw_bits()))
        assert bloom.fill_ratio() == reference / bloom.num_bits


class TestBloomSatelliteRegressions:
    def test_fill_ratio_does_not_materialize_bigint(self):
        """Satellite (a): fill_ratio popcounts in bounded chunks.

        The pre-fix implementation converted the whole bit vector into one
        Python big-int per call; for this 2 MiB filter that is a >= 2 MiB
        allocation, while the chunked popcount stays under a few hundred
        KiB.  tracemalloc makes the difference deterministic.
        """
        bloom = BloomFilter(num_bits=1 << 24, num_hashes=4)  # 2 MiB of bits
        bloom.add_many([os.urandom(20) for _ in range(256)])
        bloom.fill_ratio()  # warm any lazy state outside the measurement
        tracemalloc.start()
        try:
            bloom.fill_ratio()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"fill_ratio allocated {peak} bytes peak"

    def test_fill_ratio_exact_pinned_ratios(self):
        bloom = BloomFilter(num_bits=256, num_hashes=2)
        assert bloom.fill_ratio() == 0.0
        bloom.raw_bits()[0] = 0b1011_0001  # 4 bits
        bloom.raw_bits()[31] = 0xFF  # 8 bits
        assert bloom.fill_ratio() == 12 / 256
        bloom.raw_bits()[:] = bytes([0xFF]) * 32
        assert bloom.fill_ratio() == 1.0


# ------------------------------------------------------------------- fused node kernel
#: Bloom shapes the one kernel template serves: the default unrolled ladder
#: (derived from the config) and a looped probe block (more than 16 rounds).
BLOOM_SHAPES = {
    "unrolled": None,
    "looped": dict(num_bits=2048, num_hashes=20),
}


def _node(capacity=32, shape="unrolled", persistence=None):
    config = HashNodeConfig(
        ram_cache_entries=capacity,
        bloom_expected_items=256,
        bloom_false_positive_rate=0.05,
        ssd_buckets=16,
        ssd_write_buffer_pages=2,
    )
    geometry = BLOOM_SHAPES[shape]
    bloom = BloomFilter(**geometry) if geometry is not None else None
    return HybridHashNode("twin", config=config, bloom=bloom, persistence=persistence)


def _twin_nodes(capacity=32, shape="unrolled"):
    return _node(capacity, shape), _node(capacity, shape)


#: The kernel's two RAM-probe spellings, as ``optimistic`` flags.
SPELLINGS = pytest.mark.parametrize("optimistic", [False, True], ids=["checked", "optimistic"])


def _pin_probe(node, optimistic):
    """Make ``node`` serve every batch with one RAM-probe spelling.

    A node re-decides its spelling each time a window of lookups closes; a
    window that starts past any reachable lookup count never closes.
    """
    node._optimistic_probe = optimistic
    node._probe_window = (sys.maxsize, 0)
    return node


def _node_state(node):
    """Everything a serve leaves behind on the node itself.

    The modelled-latency recorder is not in here: the bare contract does
    not feed it (its callers that publish the model do), so it is compared
    through those callers -- ``node_lookup_batch`` against the looped
    oracle -- and pinned at zero wherever the contract is called directly.
    """
    return (
        dict(node.counters),
        node.store.stats(),
        sorted(node.store.items()),
        bytes(node.bloom.raw_bits()),
        node.bloom.count,
        list(node.cache.data),
        node.cache.stats(),
    )


def _pairs_of(items):
    """``(digest, chunk_size)`` pairs with guaranteed intra-batch duplicates."""
    return [(digest, 1 + size) for digest, size in _with_duplicates(items)]


def _assert_model_agrees(model, node):
    for name, value in model.expected_counters().items():
        assert node.counters[name] == value, name
    assert dict(node.store.items()) == model.stored
    assert list(node.cache.data) == list(model.lru)


batch_lists = st.lists(
    st.lists(st.tuples(digests, st.integers(0, 1 << 20)), min_size=1, max_size=40),
    min_size=1,
    max_size=4,
)
lru_capacities = st.integers(1, 8)


class TestFusedNodeKernelDifferential:
    """The kernel behind ``serve_bucket_verdicts`` vs the per-fingerprint oracle."""

    @SPELLINGS
    @SLOWER
    @given(batch_lists, lru_capacities, st.sampled_from(sorted(BLOOM_SHAPES)))
    def test_serve_bucket_batch_matches_scalar_loop(self, optimistic, batches, capacity, shape):
        """The batch contract's replies equal the oracle's, field for field."""
        scalar, fused = _twin_nodes(capacity, shape)
        _pin_probe(fused, optimistic)
        model = NodeModel(capacity)
        for items in batches:
            pairs = _pairs_of(items)
            fingerprints = [Fingerprint(digest=d, chunk_size=size) for d, size in pairs]
            scalar_replies = [node_reference.lookup(scalar, fp) for fp in fingerprints]
            fused_replies = node_lookup_batch(fused, fingerprints)
            # Dataclass equality covers fingerprint, is_duplicate,
            # served_from, node_id and the float service_time.
            assert fused_replies == scalar_replies
            assert all(type(reply) is LookupReply for reply in fused_replies)
            assert all(type(reply.is_duplicate) is bool for reply in fused_replies)
            tiers, _new_pairs = model.serve(pairs)
            assert [reply.served_from for reply in fused_replies] == [
                SERVED_FROM_TIER[tier] for tier in tiers
            ]
        assert _node_state(scalar) == _node_state(fused)
        # Both recording callers saw the same modelled times in the same order
        # (Welford state and reservoir alike).
        assert fused.lookup_latency == scalar.lookup_latency
        assert fused.lookup_latency.count == sum(len(items) for items in map(_pairs_of, batches))
        _assert_model_agrees(model, fused)

    @SPELLINGS
    @SLOWER
    @given(batch_lists, lru_capacities, st.sampled_from(sorted(BLOOM_SHAPES)))
    def test_serve_digest_batch_matches_scalar_loop(self, optimistic, batches, capacity, shape):
        """The contract over a wire blob with per-digest chunk sizes."""
        scalar, fused = _twin_nodes(capacity, shape)
        _pin_probe(fused, optimistic)
        model = NodeModel(capacity)
        for items in batches:
            pairs = _pairs_of(items)
            scalar_replies = [
                node_reference.lookup(scalar, Fingerprint(digest=d, chunk_size=size))
                for d, size in pairs
            ]
            tiers, service_times, new_pairs = fused.serve_bucket_verdicts(
                DigestBatch.from_blob(
                    b"".join(digest for digest, _ in pairs), [size for _, size in pairs]
                )
            )
            assert (tiers, new_pairs) == model.serve(pairs)
            assert [bool(tier) for tier in tiers] == [r.is_duplicate for r in scalar_replies]
            assert [SERVED_FROM_TIER[tier] for tier in tiers] == [
                r.served_from for r in scalar_replies
            ]
            assert service_times == [r.service_time for r in scalar_replies]
        assert _node_state(scalar) == _node_state(fused)
        # The contract returns the modelled times and records none of them.
        assert fused.lookup_latency.count == 0 < scalar.lookup_latency.count
        _assert_model_agrees(model, fused)

    @SPELLINGS
    @SLOWER
    @given(batch_lists, lru_capacities, st.sampled_from(sorted(BLOOM_SHAPES)))
    def test_one_key_view_matches_scalar_loop(self, optimistic, batches, capacity, shape):
        """One-key batches through the contract, key by key."""
        scalar, fused = _twin_nodes(capacity, shape)
        _pin_probe(fused, optimistic)
        for items in batches:
            for digest, size in _pairs_of(items):
                fingerprint = Fingerprint(digest=digest, chunk_size=size)
                assert (node_lookup(fused, fingerprint)
                        == node_reference.lookup(scalar, fingerprint))
        assert _node_state(scalar) == _node_state(fused)
        assert fused.lookup_latency == scalar.lookup_latency

    @SPELLINGS
    def test_scalar_chunk_size_blob_matches(self, optimistic):
        """One ``int`` chunk size for the whole blob == the same size per digest."""
        scalar_sized, listed = (_pin_probe(_node(), optimistic) for _ in range(2))
        sequential = _node()
        rng = random.Random(7)
        digest_pool = [rng.randbytes(20) for _ in range(120)]
        for _ in range(6):
            chosen = [rng.choice(digest_pool) for _ in range(50)]
            blob = b"".join(chosen)
            served = scalar_sized.serve_bucket_verdicts(DigestBatch.from_blob(blob, 4096))
            assert served == listed.serve_bucket_verdicts(
                DigestBatch.from_blob(blob, [4096] * len(chosen))
            )
            replies = [
                node_reference.lookup(sequential, Fingerprint(digest=d, chunk_size=4096))
                for d in chosen
            ]
            assert [bool(tier) for tier in served[0]] == [r.is_duplicate for r in replies]
            assert set(size for _digest, size in served[2]) <= {4096}
        assert _node_state(scalar_sized) == _node_state(listed) == _node_state(sequential)

    @pytest.mark.parametrize("shape", sorted(BLOOM_SHAPES))
    def test_one_kernel_per_shape(self, shape):
        """One generated function per bloom shape, memoized."""
        from repro.core import bucket_kernel

        node = _node(shape=shape)
        kernel = bucket_kernel.fused_kernel(node.bloom.num_bits, node.bloom.num_hashes)
        assert kernel.__name__ == "fused_kernel"
        assert bucket_kernel.fused_kernel(node.bloom.num_bits, node.bloom.num_hashes) is kernel
        node.serve_bucket_verdicts(DigestBatch.from_blob(os.urandom(20), 1))
        assert node._kernel is kernel

    @SPELLINGS
    def test_every_branch_in_one_batch_matches_scalar_loop(self, optimistic):
        """RAM hits, stored duplicates past a tiny LRU (their bloom verdict
        comes from the table), bloom false positives and new keys, mixed."""
        config = HashNodeConfig(ram_cache_entries=4, ssd_buckets=4, ssd_write_buffer_pages=2)
        scalar, fused = (
            HybridHashNode("twin", config=config, bloom=BloomFilter(num_bits=64, num_hashes=2))
            for _ in range(2)
        )
        _pin_probe(fused, optimistic)
        rng = random.Random(24)
        batches = [[rng.randbytes(20) for _ in range(12)]]
        for _ in range(3):
            last = batches[-1]  # its final four keys are what the LRU holds
            fresh = [rng.randbytes(20) for _ in range(40)]
            batches.append(last[-2:] + last[:6] + fresh + last[:2])
        for batch in batches:
            fingerprints = [Fingerprint(digest=d, chunk_size=1 + d[0]) for d in batch]
            assert node_lookup_batch(fused, fingerprints) == [
                node_reference.lookup(scalar, f) for f in fingerprints
            ]
        assert _node_state(scalar) == _node_state(fused)
        counters = dict(fused.counters)
        for name in ("ram_hits", "ssd_hits", "bloom_false_positives", "bloom_negative_shortcuts"):
            assert counters[name] > 0, name

    @pytest.mark.parametrize("shape", sorted(BLOOM_SHAPES))
    def test_an_all_miss_batch_served_optimistically_matches_scalar_loop(self, shape):
        """The optimistic spelling's worst case: no key is in the RAM tier.
        New keys and stored duplicates evicted from the LRU, in one batch."""
        scalar, fused = _twin_nodes(capacity=4, shape=shape)
        _pin_probe(fused, True)
        rng = random.Random(47)
        first = [rng.randbytes(20) for _ in range(60)]
        # The LRU holds the first batch's last four keys; none of these.
        second = first[:40] + [rng.randbytes(20) for _ in range(40)]
        for batch in (first, second):
            fingerprints = [Fingerprint(digest=d, chunk_size=1 + d[1]) for d in batch]
            assert node_lookup_batch(fused, fingerprints) == [
                node_reference.lookup(scalar, f) for f in fingerprints
            ]
        assert _node_state(scalar) == _node_state(fused)
        assert fused.counters["ram_hits"] == 0
        assert fused.counters["ssd_hits"] > 0 and fused.counters["new_entries"] > 0

    def test_the_probe_spelling_follows_the_recent_ram_hit_share(self):
        """Optimistic from the first batch after a window of >= 128 lookups
        with at least 90% RAM hits, checked after one below it."""
        node = _node(capacity=1024)
        node.serve_bucket_verdicts(DigestBatch.from_blob(b"", 1))
        kernel, served = node._kernel, []

        def recording(*args):
            served.append("optimistic" if args[-1] else "checked")
            return kernel(*args)

        node._kernel = recording
        rng = random.Random(11)
        known = []

        def serve(hits, misses):
            fresh = [rng.randbytes(20) for _ in range(misses)]
            tiers, _times, _new = node.serve_bucket_verdicts(
                DigestBatch.from_blob(b"".join(rng.sample(known, hits) + fresh), 1)
            )
            assert tiers.count(1) == hits  # every known key is in the RAM tier
            known.extend(fresh)

        serve(0, 128)  # closes a window of 0% hits
        serve(64, 0)
        serve(64, 0)  # closes a window of 128 lookups over two batches, 100% hits
        serve(115, 13)  # 89.8%
        serve(117, 13)  # exactly 90%
        serve(116, 14)  # 89.2%
        serve(10, 0)
        assert served == [
            "checked", "checked", "checked", "optimistic", "checked", "optimistic", "checked",
        ]

    @SPELLINGS
    def test_new_pairs_are_logged_before_the_contract_returns(self, tmp_path, optimistic):
        """Persistence pairs across kill/restart: what the contract
        acknowledged as new is exactly what recovery replays."""
        rng = random.Random(3)
        pool = [rng.randbytes(20) for _ in range(90)]
        node = _node(capacity=4, persistence=NodePersistence(str(tmp_path / "node")))
        _pin_probe(node, optimistic)
        model = NodeModel(4)
        acknowledged = []
        for round_index in range(5):
            pairs = [(d, 100 + d[0]) for d in (rng.choice(pool) for _ in range(30))]
            if round_index % 2:
                served = node.serve_bucket_verdicts(
                    DigestBatch.from_blob(
                        b"".join(d for d, _ in pairs), [size for _, size in pairs]
                    )
                )
                tiers, new_pairs = served[0], served[2]
            else:
                replies = node_lookup_batch(node, 
                    [Fingerprint(digest=d, chunk_size=size) for d, size in pairs]
                )
                tiers = [SERVED_FROM_TIER.index(reply.served_from) for reply in replies]
                new_pairs = [
                    (reply.fingerprint.digest, reply.fingerprint.chunk_size)
                    for reply in replies
                    if not reply.is_duplicate
                ]
            assert (tiers, new_pairs) == model.serve(pairs)
            acknowledged.extend(new_pairs)
            assert node.persistence.records == len(acknowledged)
        node.kill()
        assert len(node.store) == 0
        report = node.restart()
        assert report.entries == len(acknowledged)
        assert dict(node.store.items()) == dict(acknowledged) == model.stored
        # Everything acknowledged before the kill is a duplicate after it.
        tiers, _times, new_pairs = node.serve_bucket_verdicts(
            DigestBatch.from_blob(b"".join(d for d, _ in acknowledged), 4096)
        )
        assert all(tiers) and new_pairs == []
        node.persistence.close()


# --------------------------------------------------------------------- trace cache
class TestTraceCache:
    def setup_method(self):
        trace_cache.clear_memo()

    def test_generate_trace_matches_generator(self):
        profile = TABLE_I_PROFILES[0].scaled(0.001)
        reference = list(
            TraceGenerator(profile, seed=3, identity_space=profile.name).generate()
        )
        for _ in range(2):  # second call comes from the packed memo
            cached = trace_cache.generate_trace(profile, seed=3, identity_space=profile.name)
            assert [(f.digest, f.chunk_size) for f in cached] == [
                (f.digest, f.chunk_size) for f in reference
            ]

    def test_memo_returns_fresh_lists(self):
        profile = TABLE_I_PROFILES[1].scaled(0.001)
        first = trace_cache.generate_trace(profile, seed=1)
        second = trace_cache.generate_trace(profile, seed=1)
        assert first is not second
        first[0] = None  # a caller mangling its list must not poison the cache
        third = trace_cache.generate_trace(profile, seed=1)
        assert third[0] is not None and third[0].digest == second[0].digest


# ------------------------------------------------------------ no numpy on the data plane
def test_the_data_plane_imports_no_numpy():
    """An ``import numpy`` anywhere under a served batch costs every process
    ~35 MB of RSS; a fresh interpreter that serves one must not have it."""
    script = """
        import os
        import sys

        import repro
        from repro.core.cluster import ClusterConfig, SHHCCluster
        from repro.core.config import HashNodeConfig
        from repro.dedup.fingerprint import Fingerprint
        from repro.serving.wire import JsonCodec, encode_batch_frame
        from repro.serving.worker import WorkerCore, WorkerSpec

        node_config = HashNodeConfig(
            ram_cache_entries=256, bloom_expected_items=4096, ssd_buckets=64
        )
        cluster = SHHCCluster(
            ClusterConfig(num_nodes=2, replication_factor=2, node=node_config)
        )
        batch = [Fingerprint(digest=os.urandom(20), chunk_size=4096) for _ in range(512)]
        assert not any(result.is_duplicate for result in cluster.lookup_batch(batch))
        assert all(result.is_duplicate for result in cluster.lookup_batch(batch))
        node = WorkerSpec("node0", node_config={"bloom_expected_items": 4096}).build_node()
        blob = b"".join(f.digest for f in batch)
        assert WorkerCore(node, JsonCodec).on_bytes(encode_batch_frame(blob, 4096))[0]
        assert "numpy" not in sys.modules, sorted(m for m in sys.modules if "numpy" in m)[:5]
    """
    repo_root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=str(repo_root),
        env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
