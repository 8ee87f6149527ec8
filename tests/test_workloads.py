"""Tests for workload profiles, trace generation, mixing and arrivals."""

from __future__ import annotations

import pytest

from repro.workloads.arrival import OpenLoopArrivals
from repro.workloads.mixer import WorkloadMix, table_i_mix
from repro.workloads.profiles import (
    HOME_DIR,
    MAIL_SERVER,
    TABLE_I_PROFILES,
    TIME_MACHINE,
    WEB_SERVER,
    WorkloadProfile,
    profile_by_name,
)
from repro.workloads.traces import TraceGenerator, measure_trace


class TestProfiles:
    def test_table_i_values_match_the_paper(self):
        assert WEB_SERVER.fingerprints == 2_094_832
        assert WEB_SERVER.redundancy == pytest.approx(0.18)
        assert WEB_SERVER.duplicate_distance == 10_781
        assert HOME_DIR.fingerprints == 2_501_186
        assert HOME_DIR.redundancy == pytest.approx(0.37)
        assert MAIL_SERVER.fingerprints == 24_122_047
        assert MAIL_SERVER.redundancy == pytest.approx(0.85)
        assert MAIL_SERVER.duplicate_distance == 246_253
        assert TIME_MACHINE.fingerprints == 13_146_417
        assert TIME_MACHINE.chunk_size == 8192
        assert all(p.chunk_size == 4096 for p in (WEB_SERVER, HOME_DIR, MAIL_SERVER))
        assert len(TABLE_I_PROFILES) == 4

    def test_profile_by_name(self):
        assert profile_by_name("mail-server") is MAIL_SERVER
        with pytest.raises(KeyError):
            profile_by_name("nonexistent")

    def test_scaling_preserves_shape(self):
        scaled = MAIL_SERVER.scaled(0.01)
        assert scaled.fingerprints == pytest.approx(MAIL_SERVER.fingerprints * 0.01, rel=0.01)
        assert scaled.redundancy == MAIL_SERVER.redundancy
        assert scaled.duplicate_distance == pytest.approx(MAIL_SERVER.duplicate_distance * 0.01)
        assert scaled.chunk_size == MAIL_SERVER.chunk_size

    def test_with_fingerprints(self):
        resized = WEB_SERVER.with_fingerprints(50_000)
        assert resized.fingerprints == pytest.approx(50_000, rel=0.01)

    def test_unique_fingerprints_estimate(self):
        assert WEB_SERVER.unique_fingerprints == pytest.approx(
            WEB_SERVER.fingerprints * 0.82, rel=0.01
        )

    def test_logical_bytes(self):
        assert WEB_SERVER.logical_bytes == WEB_SERVER.fingerprints * 4096

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("bad", 0, 0.5, 100, 4096)
        with pytest.raises(ValueError):
            WorkloadProfile("bad", 100, 1.5, 100, 4096)
        with pytest.raises(ValueError):
            WorkloadProfile("bad", 100, 0.5, 0, 4096)
        with pytest.raises(ValueError):
            WEB_SERVER.scaled(0.0)


class TestTraceGenerator:
    def test_deterministic_given_seed(self):
        profile = WEB_SERVER.scaled(0.001)
        first = [fp.digest for fp in TraceGenerator(profile, seed=5).generate()]
        second = [fp.digest for fp in TraceGenerator(profile, seed=5).generate()]
        assert first == second

    def test_different_seeds_differ(self):
        profile = WEB_SERVER.scaled(0.001)
        first = [fp.digest for fp in TraceGenerator(profile, seed=1).generate()]
        second = [fp.digest for fp in TraceGenerator(profile, seed=2).generate()]
        assert first != second

    def test_trace_length_matches_profile(self):
        profile = HOME_DIR.scaled(0.002)
        trace = TraceGenerator(profile, seed=0).materialize()
        assert len(trace) == profile.fingerprints

    def test_redundancy_matches_target(self):
        profile = MAIL_SERVER.scaled(0.002)
        stats = TraceGenerator(profile, seed=0).materialize().statistics()
        assert stats.redundancy == pytest.approx(profile.redundancy, abs=0.02)

    def test_duplicate_distance_matches_target(self):
        profile = HOME_DIR.scaled(0.01)
        stats = TraceGenerator(profile, seed=0).materialize().statistics()
        assert stats.mean_duplicate_distance == pytest.approx(
            profile.duplicate_distance, rel=0.25
        )

    def test_chunk_sizes_follow_profile(self):
        trace = TraceGenerator(TIME_MACHINE.scaled(0.0001), seed=0).materialize()
        assert all(fp.chunk_size == 8192 for fp in trace.fingerprints)

    def test_identity_spaces_are_disjoint(self):
        web = set(fp.digest for fp in TraceGenerator(WEB_SERVER.scaled(0.0005), seed=0).generate())
        home = set(fp.digest for fp in TraceGenerator(HOME_DIR.scaled(0.0005), seed=0).generate())
        assert not (web & home)

    def test_explicit_count_overrides_profile(self):
        trace = list(TraceGenerator(WEB_SERVER, seed=0).generate(count=500))
        assert len(trace) == 500

    def test_count_validation(self):
        with pytest.raises(ValueError):
            list(TraceGenerator(WEB_SERVER, seed=0).generate(count=0))

    def test_measure_trace_on_known_sequence(self):
        from repro.dedup.fingerprint import synthetic_fingerprint

        sequence = [
            synthetic_fingerprint(1),
            synthetic_fingerprint(2),
            synthetic_fingerprint(1),  # distance 2
            synthetic_fingerprint(3),
            synthetic_fingerprint(2),  # distance 3
        ]
        stats = measure_trace(sequence)
        assert stats.fingerprints == 5
        assert stats.unique_fingerprints == 3
        assert stats.redundancy == pytest.approx(0.4)
        assert stats.mean_duplicate_distance == pytest.approx(2.5)
        assert stats.as_row()["redundant_pct"] == 40.0


class TestWorkloadMix:
    def test_table_i_mix_contains_all_profiles(self):
        mix = table_i_mix()
        assert [p.name for p in mix.profiles] == [p.name for p in TABLE_I_PROFILES]
        assert mix.total_fingerprints == sum(p.fingerprints for p in TABLE_I_PROFILES)

    def test_interleaved_length_is_sum_of_streams(self):
        mix = table_i_mix()
        combined = mix.interleaved(scale=0.0002, granularity=16)
        expected = sum(p.scaled(0.0002).fingerprints for p in TABLE_I_PROFILES)
        assert len(combined) == expected

    def test_concatenated_equals_streams_joined(self):
        mix = WorkloadMix([WEB_SERVER, HOME_DIR], seed=1)
        streams = mix.streams(scale=0.0003)
        concatenated = mix.concatenated(scale=0.0003)
        assert concatenated == streams[0] + streams[1]

    def test_split_among_clients_covers_everything(self):
        mix = table_i_mix()
        shares = mix.split_among_clients(2, scale=0.0002)
        combined = mix.interleaved(scale=0.0002)
        assert sum(len(share) for share in shares) == len(combined)
        assert abs(len(shares[0]) - len(shares[1])) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadMix([])
        with pytest.raises(ValueError):
            table_i_mix().split_among_clients(0)


class TestArrivals:
    def test_open_loop_deterministic_intervals(self):
        arrivals = OpenLoopArrivals(rate=100.0, count=5, jitter=0.0)
        times = list(arrivals.times())
        assert times == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])
        assert arrivals.nominal_duration == pytest.approx(0.05)

    def test_open_loop_poisson_mean_rate(self):
        arrivals = OpenLoopArrivals(rate=1000.0, count=20_000, jitter=1.0, seed=3)
        times = list(arrivals.times())
        achieved_rate = (len(times) - 1) / (times[-1] - times[0])
        assert achieved_rate == pytest.approx(1000.0, rel=0.05)

    def test_open_loop_reproducible(self):
        a = list(OpenLoopArrivals(rate=10.0, count=50, jitter=1.0, seed=9).times())
        b = list(OpenLoopArrivals(rate=10.0, count=50, jitter=1.0, seed=9).times())
        assert a == b

    def test_open_loop_validation(self):
        with pytest.raises(ValueError):
            OpenLoopArrivals(rate=0.0, count=10)
        with pytest.raises(ValueError):
            OpenLoopArrivals(rate=1.0, count=0)
        with pytest.raises(ValueError):
            OpenLoopArrivals(rate=1.0, count=1, jitter=2.0)
