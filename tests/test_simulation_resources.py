"""Tests for the Resource primitive."""

from __future__ import annotations

import pytest

from repro.simulation.engine import SimulationError
from repro.simulation.process import run_process
from repro.simulation.resources import Resource


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grant_is_immediate_when_free(self, sim):
        resource = Resource(sim, capacity=1)
        grant = resource.request()
        assert grant.triggered
        assert grant.value is resource

    def test_second_request_queues_until_release(self, sim):
        resource = Resource(sim, capacity=1)
        first = resource.request()
        second = resource.request()
        assert first.triggered and not second.triggered
        resource.release()
        assert second.triggered

    def test_release_without_request_raises(self, sim):
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_serialisation_of_processes(self, sim):
        resource = Resource(sim, capacity=1)
        log = []

        def worker(name, hold):
            grant = resource.request()
            yield grant
            log.append((name, "start", sim.now))
            yield sim.timeout(hold)
            resource.release()
            log.append((name, "end", sim.now))

        run_process(sim, worker("a", 2.0))
        run_process(sim, worker("b", 1.0))
        sim.run()
        # b's grant fires at the instant a releases (t=2.0); entries at the
        # same simulated time may interleave, so compare per-worker views.
        assert [entry for entry in log if entry[0] == "a"] == [
            ("a", "start", 0.0),
            ("a", "end", 2.0),
        ]
        assert [entry for entry in log if entry[0] == "b"] == [
            ("b", "start", 2.0),
            ("b", "end", 3.0),
        ]

    def test_capacity_two_runs_in_parallel(self, sim):
        resource = Resource(sim, capacity=2)
        ends = []

        def worker(hold):
            yield resource.request()
            yield sim.timeout(hold)
            resource.release()
            ends.append(sim.now)

        for _ in range(2):
            run_process(sim, worker(3.0))
        sim.run()
        assert ends == [3.0, 3.0]

    def test_priority_queue_order(self, sim):
        resource = Resource(sim, capacity=1)
        resource.request()  # occupy
        order = []
        low = resource.request(priority=10)
        high = resource.request(priority=-10)
        low.add_callback(lambda _e: order.append("low"))
        high.add_callback(lambda _e: order.append("high"))
        resource.release()
        resource.release()
        sim.run()
        assert order == ["high", "low"]
