"""Tests for batch split/reassembly and cluster metrics."""

from __future__ import annotations

import pytest

from repro.core.hash_node import NodeSnapshot
from repro.core.metrics import ClusterMetrics, LoadBalanceReport
from repro.core.partition import RangePartitioner
from repro.core.protocol import merge_by_position
from repro.dedup.fingerprint import synthetic_fingerprint

from oracles.batch_routing import split_batch_by_replica_set


PARTITIONER = RangePartitioner(["n0", "n1", "n2", "n3"])
FINGERPRINTS = [synthetic_fingerprint(i) for i in range(400)]


class TestSplitAndReassemble:
    def test_split_covers_all_positions_exactly_once(self):
        split = split_batch_by_replica_set(FINGERPRINTS[:100], PARTITIONER)
        positions = sorted(p for _req, pos in split.values() for p in pos)
        assert positions == list(range(100))

    def test_split_routes_to_owner(self):
        split = split_batch_by_replica_set(FINGERPRINTS[:100], PARTITIONER)
        for node, (request, _positions) in split.items():
            assert all(PARTITIONER.owner(fp) == node for fp in request.fingerprints)

    def test_reassemble_restores_original_order(self):
        fingerprints = FINGERPRINTS[:50]
        split = split_batch_by_replica_set(fingerprints, PARTITIONER)
        groups = []
        for node, (request, positions) in split.items():
            # Each node answers with its own request's columns.
            tiers = [fingerprints.index(fp) % 3 for fp in request.fingerprints]
            times = [float(fingerprints.index(fp)) for fp in request.fingerprints]
            groups.append((positions, tiers, times, [node] * len(tiers)))
        tiers, service_times, node_ids = merge_by_position(len(fingerprints), groups)
        assert tiers == [index % 3 for index in range(len(fingerprints))]
        assert service_times == [float(index) for index in range(len(fingerprints))]
        assert node_ids == [PARTITIONER.owner(fp) for fp in fingerprints]

    def test_reassemble_detects_missing_positions(self):
        fingerprints = FINGERPRINTS[:10]
        split = split_batch_by_replica_set(fingerprints, PARTITIONER)
        per_node = list(split.items())[:-1]  # drop one node's replies
        partial = [
            (positions, [0] * len(request), [0.0] * len(request), [node] * len(request))
            for node, (request, positions) in per_node
        ]
        with pytest.raises(ValueError, match="missing"):
            merge_by_position(len(fingerprints), partial)

    def test_reassemble_detects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            merge_by_position(4, [([0, 1], [0], [0.0], ["n0"])])


def snapshot(node_id: str, entries: int, lookups: int, ram_hits: int = 0) -> NodeSnapshot:
    return NodeSnapshot(
        node_id=node_id,
        entries=entries,
        ram_cached=0,
        lookups=lookups,
        ram_hits=ram_hits,
        ssd_hits=0,
        new_entries=entries,
        destages=0,
        bloom_negative_shortcuts=0,
        bloom_false_positives=0,
    )


class TestLoadBalanceReport:
    def test_fractions_sum_to_one(self):
        report = LoadBalanceReport({"a": 25, "b": 25, "c": 25, "d": 25})
        assert sum(report.fractions().values()) == pytest.approx(1.0)
        assert report.coefficient_of_variation == pytest.approx(0.0)
        assert report.max_over_mean == pytest.approx(1.0)
        assert report.max_deviation_from_even() == pytest.approx(0.0)

    def test_imbalance_detected(self):
        report = LoadBalanceReport({"a": 70, "b": 10, "c": 10, "d": 10})
        assert report.max_over_mean == pytest.approx(70 / 25)
        assert report.coefficient_of_variation > 0.5
        assert report.max_deviation_from_even() == pytest.approx(0.45)

    def test_empty_report(self):
        report = LoadBalanceReport({})
        assert report.total == 0
        assert report.fractions() == {}
        assert report.max_over_mean == 1.0


class TestClusterMetrics:
    def test_totals_aggregate_across_snapshots(self):
        metrics = ClusterMetrics(
            snapshots=[snapshot("n0", 100, 150, ram_hits=50), snapshot("n1", 80, 100, ram_hits=20)]
        )
        assert metrics.total_entries == 180
        assert metrics.total_lookups == 250
        assert metrics.ram_hits == 70
        assert metrics.total_new_entries == 180
        assert metrics.duplicate_ratio() == pytest.approx(70 / 250)
        assert metrics.ram_hit_ratio() == pytest.approx(70 / 250)

    def test_distributions(self):
        metrics = ClusterMetrics(snapshots=[snapshot("n0", 100, 1), snapshot("n1", 100, 3)])
        assert metrics.storage_distribution().fractions() == {"n0": 0.5, "n1": 0.5}
        assert metrics.lookup_distribution().counts == {"n0": 1, "n1": 3}
        assert set(metrics.tier_breakdown()) == {"ram", "ssd", "new"}

    def test_as_dict_keys(self):
        metrics = ClusterMetrics(snapshots=[snapshot("n0", 10, 10)])
        assert {"nodes", "lookups", "entries", "storage_cv"} <= set(metrics.as_dict())

    def test_empty_metrics(self):
        metrics = ClusterMetrics()
        assert metrics.duplicate_ratio() == 0.0
        assert metrics.total_lookups == 0
