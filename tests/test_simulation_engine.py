"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest
from oracles.event_path import Event, all_of, timeout

from repro.simulation.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_starts_at_custom_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_run_in_time_order(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(3.0, lambda: fired.append("middle"))
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_same_time_events_run_fifo(self, sim):
        fired = []
        for index in range(10):
            sim.schedule(1.0, fired.append, index)
        sim.run()
        assert fired == list(range(10))

    def test_equal_keys_never_compare_callbacks_or_args(self, sim):
        # Lambdas and dicts are not orderable: if ``sequence`` ever left the
        # calendar tuple, the heap would compare them and raise TypeError.
        fired = []
        for index in range(50):
            sim.schedule(1.0, lambda payload, i=index: fired.append((i, payload["i"])), {"i": index})
        sim.run()
        assert fired == [(index, index) for index in range(50)]

    def test_schedule_returns_nothing_to_hold(self, sim):
        assert sim.schedule(1.0, lambda: None) is None
        assert sim.schedule_at(2.0, lambda: None) is None

    def test_priority_breaks_ties(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "low", priority=5)
        sim.schedule(1.0, fired.append, "high", priority=-5)
        sim.run()
        assert fired == ["high", "low"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_at(4.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [4.0]

    def test_events_processed_counter(self, sim):
        for _ in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 7

    def test_callback_can_schedule_more_events(self, sim):
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                sim.schedule(1.0, chain, depth + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 5.0


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0

    def test_run_until_resumable(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_run_with_max_events(self, sim):
        for _ in range(100):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=10)
        assert sim.events_processed == 10

    def test_empty_run_reaches_until(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_run_is_not_reentrant(self, sim):
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1
        sim.run()  # the guard resets once the outer run returns

    def test_backwards_time_in_the_calendar_is_detected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        # Only a corrupted calendar can hold an entry behind the clock.
        sim._calendar.append((1.0, 0, 0, lambda: None, ()))
        with pytest.raises(SimulationError, match="backwards"):
            sim.run()

    def test_exception_in_callback_propagates_and_run_can_resume(self, sim):
        fired = []

        def boom():
            raise ValueError("boom")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, fired.append, "after")
        with pytest.raises(ValueError):
            sim.run()
        sim.run()
        assert fired == ["after"]

class TestPendingEventsCounter:
    """The repr reads the calendar's length, never its entries."""

    def test_repr_does_not_scan(self, sim):
        sim.schedule(1.0, lambda: None)
        assert "pending=1" in repr(sim)


class TestEvents:
    """The ``Event`` of the event-path oracle (tests/oracles/event_path.py)."""

    def test_event_succeed_value(self, sim):
        event = Event(sim, "e")
        event.succeed(42)
        assert event.triggered and event.ok
        assert event.value == 42

    def test_event_fail(self, sim):
        event = Event(sim, "e")
        error = ValueError("boom")
        event.fail(error)
        assert event.triggered and not event.ok
        assert event.exception is error
        with pytest.raises(ValueError):
            _ = event.value

    def test_value_of_pending_event_raises(self, sim):
        with pytest.raises(SimulationError):
            _ = Event(sim).value

    def test_double_trigger_rejected(self, sim):
        event = Event(sim)
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            Event(sim).fail("not an exception")

    def test_callback_runs_on_trigger(self, sim):
        event = Event(sim)
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed("payload")
        assert seen == ["payload"]

    def test_callback_added_after_trigger_runs_immediately(self, sim):
        event = Event(sim)
        event.succeed(7)
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_timeout_event(self, sim):
        event = timeout(sim, 3.0, value="done")
        seen = []
        event.add_callback(lambda e: seen.append((sim.now, e.value)))
        sim.run()
        assert seen == [(3.0, "done")]

    def test_all_of_collects_values_in_order(self, sim):
        a = timeout(sim, 2.0, "a")
        b = timeout(sim, 1.0, "b")
        combined = all_of(sim, [a, b])
        seen = []
        combined.add_callback(lambda e: seen.append((sim.now, e.value)))
        sim.run()
        assert seen == [(2.0, ["a", "b"])]

    def test_all_of_empty_succeeds_immediately(self, sim):
        assert all_of(sim, []).triggered

    def test_all_of_propagates_failure(self, sim):
        good = timeout(sim, 1.0)
        bad = Event(sim)
        combined = all_of(sim, [good, bad])
        bad.fail(RuntimeError("x"))
        sim.run()
        assert combined.triggered and not combined.ok
