"""``LatencyTally`` against the sorted-list reference (tests/oracles/latency_reference.py).

For any sequence of weighted ``add`` and ``add_many`` calls the tally must
report the reference's count, every percentile exactly (the same
interpolation over the same implied sample) and its mean up to rounding:
the tally adds ``value * count`` where the reference sums the copies.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.latency_reference import ListLatencies
from repro.simulation.stats import LatencyTally

# Latencies are non-negative seconds; a handful of distinct values makes
# repeats (and so weighted ranks) common.
_LATENCY = st.one_of(
    st.sampled_from([0.0, 1e-6, 2.5e-5, 3.1e-3, 0.25]),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
)
_CALL = st.one_of(
    st.tuples(st.just("add"), _LATENCY, st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("add_many"), st.lists(_LATENCY, max_size=30)),
)
_Q = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _replay(calls):
    tally, reference = LatencyTally(), ListLatencies()
    for call in calls:
        if call[0] == "add":
            _name, value, count = call
            tally.add(value, count)
            reference.add(value, count)
        else:
            tally.add_many(iter(call[1]))  # a one-shot iterable is enough
            reference.add_many(call[1])
    return tally, reference


@settings(max_examples=300, deadline=None)
@given(calls=st.lists(_CALL, max_size=12), qs=st.lists(_Q, min_size=1, max_size=5))
def test_tally_matches_the_sorted_list_reference(calls, qs):
    tally, reference = _replay(calls)
    assert tally.count == reference.count
    assert math.isclose(tally.mean, reference.mean, rel_tol=1e-9)
    for q in qs + [0.0, 0.5, 0.95, 0.99, 1.0]:
        if reference.count:
            assert tally.percentile(q) == reference.percentile(q)
        else:
            with pytest.raises(ValueError):
                tally.percentile(q)


@given(q=st.one_of(st.floats(max_value=-1e-12), st.floats(min_value=1.0 + 1e-12)))
def test_q_outside_the_unit_interval_is_refused(q):
    tally = LatencyTally()
    tally.add(1.0, 3)
    with pytest.raises(ValueError):
        tally.percentile(q)


def test_empty_tally():
    tally = LatencyTally()
    assert tally.count == 0 and tally.mean == 0.0
    with pytest.raises(ValueError):
        tally.percentile(0.5)


@given(value=_LATENCY, count=st.integers(min_value=1, max_value=1000), q=_Q)
def test_a_single_value_is_every_percentile(value, count, q):
    tally, reference = LatencyTally(), ListLatencies()
    tally.add(value, count)
    reference.add(value, count)
    assert tally.count == count
    # Between two copies of one value the rule still interpolates, so the
    # answer is the value up to rounding -- and exactly the reference's.
    assert tally.percentile(q) == reference.percentile(q) == pytest.approx(value)
    assert tally.percentile(0.0) == tally.percentile(1.0) == value


def test_percentile_interpolation():
    tally = LatencyTally()
    tally.add_many([1.0, 2.0, 3.0, 4.0])
    assert tally.percentile(0.0) == 1.0
    assert tally.percentile(1.0) == 4.0
    assert tally.percentile(0.5) == pytest.approx(2.5)


def test_percentile_validation():
    with pytest.raises(ValueError):
        LatencyTally().percentile(0.5)
    tally = LatencyTally()
    tally.add(1.0)
    with pytest.raises(ValueError):
        tally.percentile(1.5)


def test_mean_and_total():
    tally = LatencyTally()
    tally.add_many([1.0, 2.0, 3.0, 4.0])
    assert tally.count == 4
    assert tally.total == pytest.approx(10.0)
    assert tally.mean == pytest.approx(2.5)


def test_add_many_is_state_identical_to_an_add_loop():
    import random

    rng = random.Random(3)
    values = [rng.random() for _ in range(500)]
    looped, batched = LatencyTally(), LatencyTally()
    for value in values:
        looped.add(value)
    batched.add_many(values[:200])
    batched.add_many(values[200:])
    # Both add left to right, so even the float total is bit-identical.
    assert (batched.counts, batched.count, batched.total) == (
        looped.counts,
        looped.count,
        looped.total,
    )


def test_add_many_accepts_a_generator():
    tally = LatencyTally()
    tally.add_many(float(i) for i in range(10))
    assert tally.count == 10
    assert tally.percentile(1.0) == 9.0
    assert sorted(tally.counts) == [float(i) for i in range(10)]


def test_an_empty_batch_changes_nothing():
    tally = LatencyTally()
    tally.add_many([])
    assert (tally.counts, tally.count, tally.total) == ({}, 0, 0.0)
    tally.add_many([2.0, 1.0, 2.0])
    before = (dict(tally.counts), tally.count, tally.total)
    tally.add_many([])
    assert (tally.counts, tally.count, tally.total) == before


@given(value=_LATENCY, count=st.integers(min_value=1, max_value=200), q=_Q)
def test_a_weighted_add_reports_what_single_adds_report(value, count, q):
    weighted, single = LatencyTally(), LatencyTally()
    weighted.add(value, count)
    for _ in range(count):
        single.add(value)
    assert weighted.counts == single.counts == {value: count}
    assert weighted.count == single.count
    assert weighted.percentile(q) == single.percentile(q)
    assert math.isclose(weighted.mean, single.mean, rel_tol=1e-9, abs_tol=1e-300)


def test_the_tally_keeps_one_entry_per_distinct_value():
    # Memory follows the distinct values, not the sample: 50 000 lookups of
    # 7 modelled latencies are 7 entries, and every percentile stays exact.
    tally = LatencyTally()
    tally.add_many(float(i % 7) for i in range(50_000))
    assert tally.count == 50_000
    assert len(tally.counts) == 7
    assert tally.percentile(0.5) == 3.0
    assert tally.percentile(0.0) == 0.0 and tally.percentile(1.0) == 6.0


def test_a_tally_survives_pickling():
    """Process-pool sweeps pickle results; a tally must round-trip and stay usable."""
    import pickle

    tally = LatencyTally()
    tally.add_many(i * 1e-6 for i in range(100))
    clone = pickle.loads(pickle.dumps(tally))
    assert (clone.counts, clone.count, clone.total) == (tally.counts, tally.count, tally.total)
    clone.add(1.0)
    assert clone.count == 101 and tally.count == 100


@settings(max_examples=200, deadline=None)
@given(calls=st.lists(_CALL, max_size=8), qs=st.lists(_Q, min_size=2, max_size=6))
def test_percentiles_rise_with_q_within_the_recorded_range(calls, qs):
    tally, _reference = _replay(calls)
    if not tally.count:
        return
    recorded = [value for value, count in tally.counts.items() if count]
    answers = [tally.percentile(q) for q in sorted(qs)]

    def at_most(low, high):
        # Interpolation rounds (even between two copies of one value), so
        # an answer may pass a bound in the last bits only.
        return low <= high or math.isclose(low, high, rel_tol=1e-12)

    for answer in answers:
        assert at_most(min(recorded), answer) and at_most(answer, max(recorded))
    for low, high in zip(answers, answers[1:]):
        assert at_most(low, high)
