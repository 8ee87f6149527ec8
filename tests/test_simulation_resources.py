"""Tests for the Resource primitive."""

from __future__ import annotations

import pytest

from repro.simulation.engine import SimulationError
from repro.simulation.resources import Resource


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grant_is_immediate_when_free(self, sim):
        resource = Resource(sim, capacity=1)
        granted = []
        resource.request(lambda: granted.append(sim.now))
        assert granted == [0.0]

    def test_second_request_queues_until_release(self, sim):
        resource = Resource(sim, capacity=1)
        granted = []
        resource.request(lambda: granted.append("first"))
        resource.request(lambda: granted.append("second"))
        resource.request(lambda: granted.append("third"))
        assert granted == ["first"]
        resource.release()
        assert granted == ["first", "second"]  # FIFO among equal priorities
        resource.release()
        assert granted == ["first", "second", "third"]

    def test_release_without_request_raises(self, sim):
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_serialisation_of_processes(self, sim):
        """Two callback chains holding a capacity-1 resource take turns."""
        resource = Resource(sim, capacity=1)
        log = []

        def worker(name, hold):
            def granted():
                log.append((name, "start", sim.now))
                sim.schedule(hold, finished)

            def finished():
                resource.release()
                log.append((name, "end", sim.now))

            resource.request(granted)

        sim.schedule(0.0, worker, "a", 2.0)
        sim.schedule(0.0, worker, "b", 1.0)
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

        def finished():
            resource.release()
            ends.append(sim.now)

        for _ in range(2):
            resource.request(lambda: sim.schedule(3.0, finished))
        sim.run()
        assert ends == [3.0, 3.0]

    def test_priority_queue_order(self, sim):
        resource = Resource(sim, capacity=1)
        resource.request(lambda: None)  # occupy
        order = []
        resource.request(lambda: order.append("low"), priority=10)
        resource.request(lambda: order.append("high"), priority=-10)
        resource.release()
        resource.release()
        sim.run()
        assert order == ["high", "low"]
