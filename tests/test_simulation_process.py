"""Tests for the generator-based process model.

The model is the process helper of the ``Event``-path oracle
(``tests/oracles/event_path.py``) that the simulated request path is held
to; nothing under ``src/`` runs processes any more.
"""

from __future__ import annotations

import pytest
from oracles.event_path import Process, all_of, run_process, timeout

from repro.simulation.engine import SimulationError


class TestBasicProcesses:
    def test_process_advances_clock_by_timeouts(self, sim):
        log = []

        def worker():
            yield timeout(sim, 1.0)
            log.append(sim.now)
            yield timeout(sim, 2.0)
            log.append(sim.now)

        run_process(sim, worker())
        sim.run()
        assert log == [1.0, 3.0]

    def test_process_return_value_becomes_event_value(self, sim):
        def worker():
            yield timeout(sim, 1.0)
            return "result"

        process = run_process(sim, worker())
        sim.run()
        assert process.value == "result"

    def test_yield_plain_number_is_a_timeout(self, sim):
        def worker():
            yield 2.5
            return sim.now

        process = run_process(sim, worker())
        sim.run()
        assert process.value == 2.5

    def test_yield_event_receives_its_value(self, sim):
        def worker():
            value = yield timeout(sim, 1.0, value="payload")
            return value

        process = run_process(sim, worker())
        sim.run()
        assert process.value == "payload"

    def test_yield_invalid_object_fails_process(self, sim):
        def worker():
            yield "not an event"

        process = run_process(sim, worker())
        sim.run()
        assert process.triggered and not process.ok
        assert isinstance(process.exception, SimulationError)

    def test_requires_generator(self, sim):
        def not_a_generator():
            return 42

        with pytest.raises(TypeError):
            Process(sim, not_a_generator())  # type: ignore[arg-type]

    def test_exception_in_process_fails_its_event(self, sim):
        def worker():
            yield timeout(sim, 1.0)
            raise RuntimeError("exploded")

        process = run_process(sim, worker())
        sim.run()
        assert not process.ok
        assert isinstance(process.exception, RuntimeError)

    def test_is_alive_lifecycle(self, sim):
        def worker():
            yield timeout(sim, 5.0)

        process = run_process(sim, worker())
        assert process.is_alive
        sim.run()
        assert not process.is_alive


class TestProcessComposition:
    def test_process_waits_on_another_process(self, sim):
        def inner():
            yield timeout(sim, 2.0)
            return "inner-done"

        def outer():
            result = yield run_process(sim, inner())
            return (sim.now, result)

        process = run_process(sim, outer())
        sim.run()
        assert process.value == (2.0, "inner-done")

    def test_failure_propagates_to_waiting_process(self, sim):
        def inner():
            yield timeout(sim, 1.0)
            raise ValueError("inner failure")

        def outer():
            try:
                yield run_process(sim, inner())
            except ValueError as exc:
                return f"caught {exc}"
            return "not caught"

        process = run_process(sim, outer())
        sim.run()
        assert process.value == "caught inner failure"

    def test_two_processes_interleave(self, sim):
        log = []

        def worker(name, delay):
            for _ in range(3):
                yield timeout(sim, delay)
                log.append((name, sim.now))

        run_process(sim, worker("fast", 1.0))
        run_process(sim, worker("slow", 2.0))
        sim.run()
        # Per-process timelines are what the model guarantees; ordering of
        # different processes at the same instant is implementation detail.
        assert [t for name, t in log if name == "fast"] == [1.0, 2.0, 3.0]
        assert [t for name, t in log if name == "slow"] == [2.0, 4.0, 6.0]

    def test_all_of_processes(self, sim):
        def worker(delay, value):
            yield timeout(sim, delay)
            return value

        combined = all_of(sim, [run_process(sim, worker(1.0, "a")), run_process(sim, worker(3.0, "b"))])
        sim.run()
        assert combined.value == ["a", "b"]
        assert sim.now == 3.0
