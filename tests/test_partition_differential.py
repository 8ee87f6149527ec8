"""Differential suite: the partitioners' boundary table against integer routing.

Both partitioners route every view -- ``owner``, ``owners``,
``owners_by_key``, ``prefix_table`` and ``owner_indexes`` -- through one
table of sorted 8-byte boundaries and per-slot replica sets, bisected with
the raw digest.  ``tests/oracles/partition_reference.py`` keeps the
arithmetic it replaced (the range's division, the ring's integer bisect and
successor walk).  Here both are driven through random clusters (1-9 nodes,
1-64 virtual nodes, random joins and leaves) and must agree at the key
space's ends, one below / at / one above every boundary and token, and at
random keys, for every replica count -- with digests whose tail below the
key is all zeros and all ones, so a digest sorting against a boundary it
starts with is covered.  A first-byte prefix may route without a bisect
unless a boundary falls inside it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.partition_reference import KEY_SPACE_SIZE, ReferenceRange, ReferenceRing

from repro.core.partition import ConsistentHashRing, RangePartitioner
from repro.dedup.fingerprint import Fingerprint

TAILS = (bytes(12), b"\xff" * 12)
PREFIX_SPAN = 1 << 56


def _keys(reference, rng):
    keys = {0, KEY_SPACE_SIZE - 1}
    for boundary in reference.boundaries():
        keys.update(key for key in (boundary - 1, boundary, boundary + 1)
                    if 0 <= key < KEY_SPACE_SIZE)
    keys.update(rng.getrandbits(64) for _ in range(32))
    return sorted(keys)


def _assert_matches(partitioner, reference, rng):
    nodes = partitioner.nodes()
    assert nodes == reference.nodes
    keys = _keys(reference, rng)
    boundaries = reference.boundaries()
    fingerprints = [
        [Fingerprint(key.to_bytes(8, "big") + tail, 0) for tail in TAILS] for key in keys
    ]
    for count in range(1, len(nodes) + 1):
        for key, pair in zip(keys, fingerprints):
            expected = reference.owners_by_key(key, count)
            assert partitioner.owners_by_key(key, count) == expected
            for fingerprint in pair:
                assert partitioner.owners(fingerprint, count) == list(expected)
                if count == 1:
                    assert partitioner.owner(fingerprint) == expected[0]
        for first, replicas in enumerate(partitioner.prefix_table(count)):
            low = first * PREFIX_SPAN
            if replicas is not None:
                assert replicas == reference.owners_by_key(low, count)
                assert replicas == reference.owners_by_key(low + PREFIX_SPAN - 1, count)
            else:  # only a boundary inside the prefix may cut it
                assert any(low < boundary < low + PREFIX_SPAN for boundary in boundaries)
    blob = b"".join(fingerprint.digest for pair in fingerprints for fingerprint in pair)
    assert list(partitioner.owner_indexes(blob)) == [
        nodes.index(reference.owners_by_key(key, 1)[0]) for key in keys for _tail in TAILS
    ]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["range", "ring"]),
    num_nodes=st.integers(1, 9),
    virtual_nodes=st.integers(1, 64),
    changes=st.lists(st.tuples(st.booleans(), st.integers(0, 15)), max_size=4),
    rng=st.randoms(use_true_random=False),
)
def test_boundary_table_routes_like_integer_arithmetic(
    kind, num_nodes, virtual_nodes, changes, rng
):
    names = [f"n{index}" for index in range(num_nodes)]
    if kind == "range":
        partitioner, reference = RangePartitioner(names), ReferenceRange(names)
    else:
        partitioner = ConsistentHashRing(names, virtual_nodes=virtual_nodes)
        reference = ReferenceRing(names, virtual_nodes)
    _assert_matches(partitioner, reference, rng)
    for joining, index in changes:
        nodes = partitioner.nodes()
        if joining:
            node = f"j{index}"
            if node in nodes:
                continue
            partitioner.add_node(node)
            reference.add_node(node)
        else:
            if len(nodes) == 1:
                continue
            node = nodes[index % len(nodes)]
            partitioner.remove_node(node)
            reference.remove_node(node)
        _assert_matches(partitioner, reference, rng)
