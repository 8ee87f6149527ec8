"""The shared resource simulated processes queue on.

:class:`Resource` is a counted resource (a device that can serve
``capacity`` concurrent operations, a link port, a node's CPU).  Requests
queue FIFO (or by priority).  Waiting is expressed through
:class:`~repro.simulation.engine.Event` objects, so it composes with
processes naturally.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Tuple

from .engine import Event, SimulationError, Simulator

__all__ = ["Resource"]


class Resource:
    """A resource with integer capacity and a (priority) request queue.

    Usage from a process::

        grant = resource.request()
        yield grant                 # waits until a slot is available
        ...                         # hold the slot
        resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._queue: List[Tuple[int, int, Event]] = []
        self._sequence = itertools.count()

    # -- operations -----------------------------------------------------------
    def request(self, priority: int = 0) -> Event:
        """Ask for a slot.  The returned event succeeds when the slot is granted."""
        grant = self.sim.event(f"{self.name}.grant")
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            grant.succeed(self)
        else:
            heapq.heappush(self._queue, (priority, next(self._sequence), grant))
        return grant

    def release(self) -> None:
        """Return a slot, waking the next queued request if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        while self._queue:
            _priority, _seq, grant = heapq.heappop(self._queue)
            if grant.triggered:  # cancelled externally
                continue
            self._in_use += 1
            grant.succeed(self)
            break
