"""Properties of :mod:`repro.telemetry`: the histogram merge is exact.

The fleet view the gateway serves is only worth reading if adding two
workers' histograms gives *the* histogram of their pooled observations --
bucket for bucket and in ``sum`` -- whatever the order and grouping of the
additions.  Integer buckets over one shared bound table make that a
theorem; these tests are its proof by hypothesis.
"""

from __future__ import annotations

import io
import json
import math
from bisect import bisect_left
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import BOUNDS_NS, Histogram, Registry, event, render_prometheus

# Durations from below the first bound (and nonsense: zero, negative) to
# beyond the last one; most mass where batches live (us to ms).
_values = st.lists(
    st.one_of(
        st.integers(-5, 2_000),
        st.integers(1_000, 50_000_000),
        st.integers(BOUNDS_NS[-1] - 3, BOUNDS_NS[-1] * 4),
    ),
    max_size=200,
)


def _fed(values) -> Histogram:
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


def _state(histogram: Histogram):
    return histogram.counts, histogram.sum_ns


def _merged(*parts: Histogram) -> Histogram:
    total = Histogram()
    for part in parts:
        total.merge(part.snapshot())
    return total


def test_the_bound_table_is_one_microsecond_times_quarter_powers_of_two():
    assert BOUNDS_NS[0] == 1_000 and BOUNDS_NS[4] == 2_000 and BOUNDS_NS[40] == 1_024_000
    assert list(BOUNDS_NS) == sorted(set(BOUNDS_NS))
    assert 100e9 < BOUNDS_NS[-1] < 128e9
    assert len(Histogram().counts) == len(BOUNDS_NS) + 1


@settings(max_examples=200, deadline=None)
@given(_values, _values)
def test_merge_of_two_is_one_fed_the_concatenation(left, right):
    assert _state(_merged(_fed(left), _fed(right))) == _state(_fed(left + right))


@settings(max_examples=100, deadline=None)
@given(_values, _values, _values)
def test_merge_is_associative_and_commutative(a, b, c):
    a, b, c = _fed(a), _fed(b), _fed(c)
    reference = _state(_merged(a, b, c))
    assert _state(_merged(c, a, b)) == reference
    assert _state(_merged(_merged(a, b), c)) == reference
    assert _state(_merged(a, _merged(b, c))) == reference


@settings(max_examples=100, deadline=None)
@given(_values)
def test_observe_many_is_a_loop_of_observe(values):
    batched = Histogram()
    batched.observe_many(values)
    assert _state(batched) == _state(_fed(values))
    generated = Histogram()
    generated.observe_many(value for value in values)
    assert _state(generated) == _state(batched)


@settings(max_examples=200, deadline=None)
@given(_values.filter(bool), st.sampled_from([0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0]))
def test_every_quantile_lies_in_the_bucket_of_the_exact_order_statistic(values, fraction):
    exact = sorted(values)[max(1, math.ceil(fraction * len(values))) - 1]
    index = bisect_left(BOUNDS_NS, exact)
    lower = BOUNDS_NS[index - 1] if index else 0
    upper = BOUNDS_NS[index] if index < len(BOUNDS_NS) else BOUNDS_NS[-1]
    assert lower <= _fed(values).quantile(fraction) <= upper


@settings(max_examples=100, deadline=None)
@given(_values)
def test_snapshot_survives_json_and_merges_back(values):
    histogram = _fed(values)
    wire = json.loads(json.dumps(histogram.snapshot()))
    restored = Histogram()
    restored.merge(wire)
    assert _state(restored) == _state(histogram)
    assert wire["count"] == len(values) == histogram.count
    assert wire["us"]["count"] == len(values)


def test_out_of_range_values_land_in_the_end_buckets_and_never_raise():
    histogram = _fed([-7, 0, 1, BOUNDS_NS[0], BOUNDS_NS[0] + 1, BOUNDS_NS[-1], BOUNDS_NS[-1] + 1, 10**15])
    assert histogram.counts[0] == 4 and histogram.counts[1] == 1
    assert histogram.counts[-2] == 1 and histogram.counts[-1] == 2
    assert histogram.count == 8
    # The overflow bucket has no upper bound to interpolate to.
    assert histogram.quantile(1.0) == BOUNDS_NS[-1]
    assert Histogram().quantile(0.5) == 0.0 and Histogram().summary_us()["mean"] == 0.0
    with pytest.raises(ValueError):
        histogram.quantile(1.5)


def test_quantiles_interpolate_inside_one_bucket():
    histogram = _fed([1_500_000] * 100)  # all in (1 448 155, 1 722 156]
    index = bisect_left(BOUNDS_NS, 1_500_000)
    lower, upper = BOUNDS_NS[index - 1], BOUNDS_NS[index]
    assert histogram.quantile(0.5) == pytest.approx(lower + (upper - lower) * 0.5)
    assert histogram.quantile(1.0) == upper
    summary = histogram.summary_us()
    assert summary["count"] == 100 and summary["mean"] == 1_500.0
    assert lower / 1e3 < summary["p50"] < summary["p95"] < summary["p99"] <= upper / 1e3


# ---------------------------------------------------------------------- registry
def _worker_registry(lookups: int, entries: int, durations) -> Registry:
    registry = Registry(counters=("lookups", "ram_hits"))
    registry.counters["lookups"] += lookups
    registry.gauges["entries"] = entries
    registry.info["build"] = "test"
    registry.histogram("serve_batch").observe_many(durations)
    return registry


def test_registry_merge_adds_counters_gauges_and_histograms_but_not_info():
    left = _worker_registry(10, 100, [2_000, 3_000])
    right = _worker_registry(5, 50, [900_000])
    right.counters["restarts"] = 1  # a name the other side never declared
    fleet = Registry()
    for snapshot in (left.snapshot(), json.loads(json.dumps(right.snapshot()))):
        fleet.merge(snapshot)
    merged = fleet.snapshot()
    assert merged["counters"] == {"lookups": 15, "ram_hits": 0, "restarts": 1}
    assert merged["gauges"] == {"entries": 150}
    assert merged["info"] == {}
    assert merged["histograms"]["serve_batch"]["count"] == 3
    assert merged["histograms"]["serve_batch"]["sum_ns"] == 905_000
    assert fleet.histogram("serve_batch") is fleet.histogram("serve_batch")


def test_prometheus_rendering_is_one_family_per_name_with_cumulative_ladders():
    left = _worker_registry(10, 100, [2_000, 3_000, 10**13])
    right = _worker_registry(5, 50, [900_000])
    text = render_prometheus("shhc_worker", [
        ({"node": "node0"}, left.snapshot()), ({"node": 'no"de1'}, right.snapshot())])
    lines = text.splitlines()
    assert text.endswith("\n") and lines.count("# TYPE shhc_worker_lookups_total counter") == 1
    assert 'shhc_worker_lookups_total{node="node0"} 10' in lines
    assert 'shhc_worker_lookups_total{node="no\\"de1"} 5' in lines
    assert 'shhc_worker_entries{node="node0"} 100' in lines
    assert 'shhc_worker_info{node="node0",build="test"} 1' in lines
    ladder = [int(line.rsplit(" ", 1)[1]) for line in lines
              if line.startswith('shhc_worker_serve_batch_seconds_bucket{node="node0"')]
    assert len(ladder) == len(BOUNDS_NS) + 1 and ladder == sorted(ladder)
    assert ladder[0] == 0 and ladder[-2] == 2 and ladder[-1] == 3
    assert 'shhc_worker_serve_batch_seconds_bucket{node="node0",le="0.001024"} 2' in lines
    assert 'shhc_worker_serve_batch_seconds_bucket{node="node0",le="1e-06"} 0' in lines
    assert 'shhc_worker_serve_batch_seconds_bucket{node="node0",le="+Inf"} 3' in lines
    assert 'shhc_worker_serve_batch_seconds_count{node="node0"} 3' in lines
    assert 'shhc_worker_serve_batch_seconds_sum{node="node0"} 10000.000005' in lines
    # A registry renders itself as the single unlabelled series of its prefix.
    alone = left.render_prometheus("shhc_gateway")
    assert "shhc_gateway_lookups_total 10" in alone.splitlines()
    assert 'shhc_gateway_serve_batch_seconds_bucket{le="+Inf"} 3' in alone.splitlines()
    assert render_prometheus("x", []) == "\n"


def test_event_is_one_json_line_on_stderr():
    stream = io.StringIO()
    with redirect_stderr(stream):
        event("worker_died", node="node1", pid=4242, failed_frames=3, cause=ValueError("x"))
    (line,) = stream.getvalue().splitlines()
    record = json.loads(line)
    assert record["event"] == "worker_died" and record["pid"] == 4242
    assert record["failed_frames"] == 3 and record["cause"] == "x" and record["ts"] > 0
