"""Tests for the random-stream and statistics helpers."""

from __future__ import annotations

import math

import pytest

from repro.simulation.rng import RandomStreams, derive_seed
from repro.simulation.stats import (
    Counter,
    LatencyRecorder,
    ReservoirSample,
    SummaryStats,
    percentile,
)


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(7).stream("workload")
        b = RandomStreams(7).stream("workload")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_are_independent(self):
        streams = RandomStreams(7)
        first = [streams.stream("a").random() for _ in range(5)]
        second = [streams.stream("b").random() for _ in range(5)]
        assert first != second

    def test_adding_stream_does_not_disturb_existing(self):
        streams = RandomStreams(7)
        stream_a = streams.stream("a")
        first_draw = stream_a.random()
        streams.stream("new-consumer")
        reference = RandomStreams(7).stream("a")
        reference.random()
        assert stream_a.random() == reference.random()

    def test_reset_restores_initial_state(self):
        streams = RandomStreams(3)
        draws = [streams.stream("x").random() for _ in range(3)]
        streams.reset()
        assert [streams.stream("x").random() for _ in range(3)] == draws

    def test_spawn_creates_distinct_family(self):
        parent = RandomStreams(3)
        child = parent.spawn("child")
        assert child.master_seed != parent.master_seed

    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestSummaryStats:
    def test_mean_min_max_total(self):
        stats = SummaryStats()
        stats.extend([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.total == pytest.approx(10.0)

    def test_variance_matches_definition(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        stats = SummaryStats()
        stats.extend(values)
        mean = sum(values) / len(values)
        expected = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stats.variance == pytest.approx(expected)
        assert stats.stddev == pytest.approx(math.sqrt(expected))

    def test_merge_equals_combined(self):
        left, right, combined = SummaryStats(), SummaryStats(), SummaryStats()
        data_left = [1.0, 5.0, 2.0]
        data_right = [10.0, 0.5]
        left.extend(data_left)
        right.extend(data_right)
        combined.extend(data_left + data_right)
        merged = left.merge(right)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean)
        assert merged.variance == pytest.approx(combined.variance)
        assert merged.minimum == combined.minimum
        assert merged.maximum == combined.maximum

    def test_merge_with_empty(self):
        stats = SummaryStats()
        stats.add(3.0)
        assert stats.merge(SummaryStats()).mean == 3.0
        assert SummaryStats().merge(stats).mean == 3.0

    def test_as_dict_keys(self):
        stats = SummaryStats()
        stats.add(1.0)
        assert set(stats.as_dict()) == {"count", "mean", "stddev", "min", "max", "total"}


class TestPercentilesAndReservoir:
    def test_percentile_interpolation(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 1.0) == 4.0
        assert percentile(data, 0.5) == pytest.approx(2.5)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_reservoir_keeps_all_when_small(self):
        reservoir = ReservoirSample(capacity=100)
        for value in range(50):
            reservoir.add(float(value))
        assert sorted(reservoir.values()) == [float(v) for v in range(50)]
        assert reservoir.seen == 50

    def test_reservoir_bounded_and_representative(self):
        reservoir = ReservoirSample(capacity=500, seed=1)
        for value in range(50_000):
            reservoir.add(float(value))
        assert len(reservoir.values()) == 500
        # The median of a uniform 0..50k stream should be near 25k.
        assert reservoir.percentile(0.5) == pytest.approx(25_000, rel=0.15)

    def test_latency_recorder(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record(float(value))
        assert recorder.count == 100
        assert recorder.mean == pytest.approx(50.5)
        assert recorder.percentile(0.99) >= 95.0
        assert set(recorder.as_dict()) >= {"count", "mean", "p50", "p95", "p99"}


class TestTimeWeightedAndCounters:
    def test_counter_increment_and_merge(self):
        a = Counter()
        a.increment("x")
        a.increment("x", 4)
        b = Counter()
        b.increment("x")
        b.increment("y", 2)
        merged = a.merge(b)
        assert merged.get("x") == 6
        assert merged.get("y") == 2
        assert a.get("missing") == 0


class TestBatchedRecording:
    """record_many / add_many must be state-identical to per-sample calls."""

    def test_record_many_matches_record_loop(self):
        import random

        rng = random.Random(3)
        values = [rng.random() for _ in range(500)]
        reference = LatencyRecorder("ref", reservoir_size=64)
        batched = LatencyRecorder("fast", reservoir_size=64)
        for value in values:
            reference.record(value)
        batched.record_many(values[:200])
        batched.record_many(values[200:])
        assert batched.summary.as_dict() == reference.summary.as_dict()
        # Identical reservoir contents even across the capacity boundary:
        # both made the same seeded RNG draws in the same order.
        assert batched.reservoir.values() == reference.reservoir.values()
        assert batched.reservoir.seen == reference.reservoir.seen

    def test_add_many_below_capacity_skips_no_draws(self):
        reference = ReservoirSample(capacity=100, seed=7)
        batched = ReservoirSample(capacity=100, seed=7)
        for value in range(50):
            reference.add(float(value))
        batched.add_many([float(value) for value in range(50)])
        assert batched.values() == reference.values()
        # Subsequent over-capacity adds must agree too (same RNG state).
        for value in range(200):
            reference.add(float(value))
        batched.add_many([float(value) for value in range(200)])
        assert batched.values() == reference.values()

    def test_record_many_accepts_generators(self):
        recorder = LatencyRecorder("gen")
        recorder.record_many(float(i) for i in range(10))
        assert recorder.count == 10
        assert recorder.summary.maximum == 9.0
        # The one-shot iterable must reach the reservoir too, not just the
        # Welford summary (a generator is exhausted after one pass).
        assert sorted(recorder.reservoir.values()) == [float(i) for i in range(10)]

    def test_empty_batch_is_a_noop(self):
        recorder = LatencyRecorder("empty", reservoir_size=8)
        recorder.record_many([])
        assert recorder.count == 0
        assert recorder.reservoir.values() == []
        assert recorder.reservoir.seen == 0
        # On a non-empty recorder too: summary, reservoir and RNG state all
        # untouched (later draws must match a recorder that never saw the
        # empty batch).
        reference = LatencyRecorder("ref", reservoir_size=8)
        values = [float(v) for v in range(20)]
        recorder.record_many(values)
        recorder.record_many([])
        reference.record_many(values)
        recorder.record_many(values)
        reference.record_many(values)
        assert recorder.summary.as_dict() == reference.summary.as_dict()
        assert recorder.reservoir.values() == reference.reservoir.values()
        sample = ReservoirSample(capacity=4, seed=11)
        sample.add_many([1.0, 2.0, 3.0, 4.0, 5.0])  # beyond capacity: RNG engaged
        snapshot, seen = sample.values(), sample.seen
        sample.add_many([])
        assert sample.values() == snapshot and sample.seen == seen

    def test_single_element_batch_matches_single_add(self):
        reference = LatencyRecorder("ref", reservoir_size=4)
        batched = LatencyRecorder("fast", reservoir_size=4)
        # Walk well past the reservoir capacity one element at a time so the
        # single-element batch path is exercised both below and above it.
        for value in range(12):
            reference.record(float(value))
            batched.record_many([float(value)])
        assert batched.summary.as_dict() == reference.summary.as_dict()
        assert batched.reservoir.values() == reference.reservoir.values()
        assert batched.reservoir.seen == reference.reservoir.seen

    def test_overflow_batch_ordering_matches_add_loop(self):
        # A batch that crosses the capacity boundary mid-batch must fall back
        # to per-sample offers in input order: the first elements still fill
        # the free slots without RNG draws, the rest draw exactly the same
        # replacement indices as a hand-written add() loop.
        reference = ReservoirSample(capacity=10, seed=23)
        batched = ReservoirSample(capacity=10, seed=23)
        head = [float(v) for v in range(7)]
        overflow = [float(v) for v in range(100, 130)]
        for value in head:
            reference.add(value)
        batched.add_many(head)
        for value in overflow:
            reference.add(value)
        batched.add_many(overflow)  # 7 + 30 > 10: boundary crossed mid-batch
        assert batched.values() == reference.values()
        assert batched.seen == reference.seen == 37
