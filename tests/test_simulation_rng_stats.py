"""Tests for the random-stream helpers.

The latency tally's tests are tests/test_latency_tally_differential.py.
"""

from __future__ import annotations

from repro.simulation.rng import RandomStreams, derive_seed


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
