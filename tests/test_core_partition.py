"""Tests for the hash-space partitioners."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.partition import ConsistentHashRing, RangePartitioner
from repro.dedup.fingerprint import synthetic_fingerprint


FINGERPRINTS = [synthetic_fingerprint(i) for i in range(5000)]


class TestRangePartitioner:
    def test_requires_unique_nonempty_nodes(self):
        with pytest.raises(ValueError):
            RangePartitioner([])
        with pytest.raises(ValueError):
            RangePartitioner(["a", "a"])

    def test_owner_is_deterministic(self):
        partitioner = RangePartitioner(["n0", "n1", "n2", "n3"])
        fingerprint = synthetic_fingerprint(42)
        assert partitioner.owner(fingerprint) == partitioner.owner(fingerprint)

    def test_every_fingerprint_has_exactly_one_owner(self):
        partitioner = RangePartitioner(["n0", "n1", "n2", "n3"])
        owners = {partitioner.owner(fp) for fp in FINGERPRINTS}
        assert owners <= {"n0", "n1", "n2", "n3"}

    def test_uniform_distribution_over_sha1_keys(self):
        partitioner = RangePartitioner([f"n{i}" for i in range(4)])
        counts = Counter(partitioner.owner(fp) for fp in FINGERPRINTS)
        for count in counts.values():
            assert count == pytest.approx(len(FINGERPRINTS) / 4, rel=0.15)

    def test_owners_returns_distinct_successors(self):
        partitioner = RangePartitioner(["n0", "n1", "n2", "n3"])
        owners = partitioner.owners(FINGERPRINTS[0], 3)
        assert len(owners) == 3
        assert len(set(owners)) == 3
        assert owners[0] == partitioner.owner(FINGERPRINTS[0])

    def test_owners_clamped_to_cluster_size(self):
        partitioner = RangePartitioner(["n0", "n1"])
        assert len(partitioner.owners(FINGERPRINTS[0], 5)) == 2
        with pytest.raises(ValueError):
            partitioner.owners(FINGERPRINTS[0], 0)

    def test_add_and_remove_node(self):
        partitioner = RangePartitioner(["n0", "n1"])
        partitioner.add_node("n2")
        assert partitioner.nodes() == ["n0", "n1", "n2"]
        partitioner.remove_node("n1")
        assert partitioner.nodes() == ["n0", "n2"]
        with pytest.raises(ValueError):
            partitioner.add_node("n0")
        with pytest.raises(KeyError):
            partitioner.remove_node("ghost")

    def test_cannot_remove_last_node(self):
        partitioner = RangePartitioner(["only"])
        with pytest.raises(ValueError):
            partitioner.remove_node("only")

    def test_owner_indexes_follow_membership(self):
        # The batch form of owner(): one index byte per packed digest (the
        # boundary cases live in tests/test_serving.py's property test).
        blob = b"".join(fingerprint.digest for fingerprint in FINGERPRINTS[:500])
        partitioner = RangePartitioner(["n0", "n1", "n2"])
        for joining in ("n3", "n4"):
            nodes = partitioner.nodes()
            owners = partitioner.owner_indexes(blob)
            assert [nodes[index] for index in owners] == [
                partitioner.owner(fingerprint) for fingerprint in FINGERPRINTS[:500]
            ]
            partitioner.add_node(joining)  # the cached byte table must not survive this
        assert partitioner.owner_indexes(b"") == b""

    def test_owner_indexes_need_a_free_byte_value(self):
        assert RangePartitioner([f"n{i}" for i in range(254)]).owner_indexes(bytes(20)) == b"\x00"
        with pytest.raises(ValueError):
            RangePartitioner([f"n{i}" for i in range(255)]).owner_indexes(bytes(20))


class TestConsistentHashRing:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a"], virtual_nodes=0)
        with pytest.raises(ValueError):
            ConsistentHashRing(["a", "a"])

    def test_owner_is_deterministic_and_member(self):
        ring = ConsistentHashRing(["n0", "n1", "n2"], virtual_nodes=32)
        for fingerprint in FINGERPRINTS[:100]:
            owner = ring.owner(fingerprint)
            assert owner == ring.owner(fingerprint)
            assert owner in {"n0", "n1", "n2"}

    def test_token_count_per_node(self):
        ring = ConsistentHashRing(["n0", "n1"], virtual_nodes=64)
        assert ring.token_count("n0") == 64
        assert ring.token_count("n1") == 64

    def test_distribution_roughly_uniform_with_many_tokens(self):
        ring = ConsistentHashRing([f"n{i}" for i in range(4)], virtual_nodes=256)
        counts = Counter(ring.owner(fp) for fp in FINGERPRINTS)
        for count in counts.values():
            assert count == pytest.approx(len(FINGERPRINTS) / 4, rel=0.35)

    def test_node_join_moves_limited_fraction_of_keys(self):
        ring = ConsistentHashRing([f"n{i}" for i in range(4)], virtual_nodes=128)
        before = {fp.digest: ring.owner(fp) for fp in FINGERPRINTS}
        ring.add_node("n4")
        moved = sum(1 for fp in FINGERPRINTS if ring.owner(fp) != before[fp.digest])
        # Ideal movement is 1/5 of the keys; allow generous slack.
        assert moved / len(FINGERPRINTS) < 0.35
        # Every moved key must now belong to the new node.
        for fingerprint in FINGERPRINTS:
            if ring.owner(fingerprint) != before[fingerprint.digest]:
                assert ring.owner(fingerprint) == "n4"

    def test_node_leave_only_reassigns_its_keys(self):
        ring = ConsistentHashRing([f"n{i}" for i in range(4)], virtual_nodes=128)
        before = {fp.digest: ring.owner(fp) for fp in FINGERPRINTS}
        ring.remove_node("n2")
        for fingerprint in FINGERPRINTS:
            if before[fingerprint.digest] != "n2":
                assert ring.owner(fingerprint) == before[fingerprint.digest]
            else:
                assert ring.owner(fingerprint) != "n2"

    def test_owners_are_distinct_physical_nodes(self):
        ring = ConsistentHashRing(["n0", "n1", "n2"], virtual_nodes=64)
        owners = ring.owners(FINGERPRINTS[0], 3)
        assert len(owners) == 3
        assert len(set(owners)) == 3

    def test_cannot_remove_last_node(self):
        ring = ConsistentHashRing(["solo"])
        with pytest.raises(ValueError):
            ring.remove_node("solo")
        with pytest.raises(KeyError):
            ring.remove_node("ghost")

    def test_add_existing_rejected(self):
        ring = ConsistentHashRing(["n0"])
        with pytest.raises(ValueError):
            ring.add_node("n0")


class TestEpochAndKeyAddressedOwners:
    """Key-addressed ``owners_by_key`` (shared tuples) against ``owners``."""

    def test_owners_by_key_matches_owners(self):
        from repro.core.partition import key_of_digest

        fingerprints = [synthetic_fingerprint(i) for i in range(200)]
        for partitioner in (
            RangePartitioner([f"n{i}" for i in range(5)]),
            ConsistentHashRing([f"n{i}" for i in range(5)], virtual_nodes=16),
        ):
            for count in (1, 2, 4):
                for fingerprint in fingerprints:
                    key = key_of_digest(fingerprint.digest)
                    assert list(partitioner.owners_by_key(key, count)) == (
                        partitioner.owners(fingerprint, count)
                    )

    def test_key_of_digest_matches_prefix_int(self):
        from repro.core.partition import KEY_SPACE_BITS, key_of_digest

        for i in range(50):
            fingerprint = synthetic_fingerprint(i * 13)
            assert key_of_digest(fingerprint.digest) == fingerprint.prefix_int(KEY_SPACE_BITS)

    def test_owner_cycles_invalidate_on_membership_change(self):
        partitioner = RangePartitioner(["a", "b", "c"])
        fingerprint = synthetic_fingerprint(9)
        before = partitioner.owners(fingerprint, 2)
        partitioner.add_node("d")
        after = partitioner.owners(fingerprint, 2)
        assert set(after) <= {"a", "b", "c", "d"}
        assert len(after) == 2
        ring = ConsistentHashRing(["a", "b", "c"], virtual_nodes=8)
        first = ring.owners(fingerprint, 2)
        ring.add_node("d")
        second = ring.owners(fingerprint, 2)
        assert len(second) == 2
        assert first != second or True  # membership change may or may not move this key
