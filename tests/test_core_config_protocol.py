"""Tests for cluster/node configuration and the lookup protocol types."""

from __future__ import annotations

import pytest

from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.protocol import (
    BatchLookupReply,
    BatchLookupRequest,
    LookupReply,
    REPLY_BYTES_PER_FINGERPRINT,
    REQUEST_OVERHEAD_BYTES,
    ServedFrom,
)
from repro.dedup.fingerprint import FINGERPRINT_BYTES, synthetic_fingerprint


class TestHashNodeConfig:
    def test_defaults_are_sane(self):
        config = HashNodeConfig()
        assert config.ram_cache_entries > 0
        assert 0 < config.bloom_false_positive_rate < 1
        assert config.cpu_per_lookup > 0

    def test_scaled_for_sets_bloom_capacity(self):
        config = HashNodeConfig().scaled_for(123_456)
        assert config.bloom_expected_items == 123_456

    def test_scaled_for_validation_and_floor(self):
        with pytest.raises(ValueError):
            HashNodeConfig().scaled_for(0)
        assert HashNodeConfig().scaled_for(10).bloom_expected_items == 1024

    def test_frozen(self):
        with pytest.raises(AttributeError):
            HashNodeConfig().ram_cache_entries = 5  # type: ignore[misc]


class TestClusterConfig:
    def test_node_names(self):
        config = ClusterConfig(num_nodes=3)
        assert config.node_names == ["hashnode-0", "hashnode-1", "hashnode-2"]

    def test_with_nodes_copies_everything_else(self):
        config = ClusterConfig(num_nodes=2, replication_factor=2)
        grown = config.with_nodes(8)
        assert grown.num_nodes == 8
        assert grown.replication_factor == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=2, replication_factor=0)
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=2, replication_factor=3)
        with pytest.raises(ValueError):
            ClusterConfig(virtual_nodes=-1)

    def test_custom_prefix(self):
        config = ClusterConfig(num_nodes=2, node_name_prefix="shard")
        assert config.node_names == ["shard-0", "shard-1"]


class TestProtocolMessages:
    def test_single_lookup_sizes(self):
        request = BatchLookupRequest([synthetic_fingerprint(1)])
        assert request.payload_bytes == REQUEST_OVERHEAD_BYTES + FINGERPRINT_BYTES
        reply = LookupReply(synthetic_fingerprint(1), True, ServedFrom.RAM)
        assert reply.payload_bytes > 0

    def test_batch_request_size_scales_with_fingerprints(self):
        small = BatchLookupRequest([synthetic_fingerprint(1)])
        large = BatchLookupRequest([synthetic_fingerprint(i) for i in range(128)])
        assert len(small) == 1 and len(large) == 128
        assert large.payload_bytes - small.payload_bytes == 127 * FINGERPRINT_BYTES

    def test_batch_request_requires_fingerprints(self):
        with pytest.raises(ValueError):
            BatchLookupRequest([])

    def test_batch_reply_accounting(self):
        fingerprints = [synthetic_fingerprint(i) for i in range(10)]
        tiers = [1 if i % 2 == 0 else 0 for i in range(10)]
        batch = BatchLookupReply(fingerprints, tiers, [0.5] * 10, node_id="n0")
        assert len(batch) == 10
        assert batch.duplicates == 5
        assert batch.uniques == 5
        assert batch.unique_fingerprints() == fingerprints[1::2]
        assert batch.payload_bytes == REQUEST_OVERHEAD_BYTES + 10 * REPLY_BYTES_PER_FINGERPRINT
        # The LookupReply view, built on demand.
        replies = batch.replies
        assert [reply.fingerprint for reply in replies] == fingerprints
        assert [reply.is_duplicate for reply in replies] == [bool(tier) for tier in tiers]
        assert {reply.served_from for reply in replies} == {ServedFrom.RAM, ServedFrom.NEW}
        assert {reply.node_id for reply in replies} == {"n0"}

    def test_served_from_values(self):
        assert {ServedFrom.RAM.value, ServedFrom.SSD.value, ServedFrom.NEW.value} == {
            "ram",
            "ssd",
            "new",
        }
