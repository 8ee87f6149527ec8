"""The shared resource simulated components queue on.

:class:`Resource` is a counted resource (a device that can serve
``capacity`` concurrent operations, a node's CPU).  Requests queue FIFO (or
by priority).  A request names the callback that runs once its slot is
granted -- at once when a slot is free, otherwise inside the
:meth:`Resource.release` that frees one -- so waiting schedules nothing on
the calendar by itself.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple

from .engine import SimulationError, Simulator

__all__ = ["Resource"]


class Resource:
    """A resource with integer capacity and a (priority) request queue.

    Usage from a callback chain::

        def granted():
            ...                     # hold the slot
            sim.schedule(hold, done)

        def done():
            resource.release()

        resource.request(granted)   # runs granted() once a slot is free
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._sequence = itertools.count()

    # -- operations -----------------------------------------------------------
    def request(self, on_grant: Callable[[], None], priority: int = 0) -> None:
        """Ask for a slot; ``on_grant()`` runs when the slot is granted."""
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            on_grant()
        else:
            heapq.heappush(self._queue, (priority, next(self._sequence), on_grant))

    def release(self) -> None:
        """Return a slot, granting it to the next queued request if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._queue:
            # The slot passes straight to the waiter: in use stays the same.
            heapq.heappop(self._queue)[2]()
        else:
            self._in_use -= 1
