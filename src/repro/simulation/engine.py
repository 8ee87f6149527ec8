"""Discrete-event simulation kernel.

The engine provides a simulated clock and an event calendar.  The design
follows the classic event-calendar model: an event is a callback scheduled
at an absolute simulated time; the simulator pops events in time order and
invokes them, advancing the clock.  Simulated components are chains of such
callbacks: a step does its work, then schedules the next step or hands it
to a :class:`~repro.simulation.resources.Resource` to run once a slot is
free.  The sibling modules add that resource, random streams and
statistics.

The kernel is deliberately free of any domain knowledge -- it is reused by
every simulated component in the repository (storage devices, network links,
hash nodes, clients).

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> sim.schedule(5.0, lambda: fired.append(sim.now))
>>> sim.schedule(1.0, lambda: fired.append(sim.now))
>>> sim.run()
5.0
>>> fired
[1.0, 5.0]
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional, Tuple

__all__ = [
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised when the simulation kernel is used incorrectly."""


class Simulator:
    """The discrete-event simulation engine.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock, in seconds.
    seed:
        Master seed for this run's :class:`~repro.simulation.rng.RandomStreams`
        family (exposed as :attr:`streams`).  Stochastic components attached
        to the simulator draw from named child streams, so two simulators
        built with the same seed replay identical randomness regardless of
        how many consumers each one has.
    """

    #: A reserved position every calendar has reached, for one not yet made.
    ORIGIN: Tuple[float, int, int] = (float("-inf"), 0, -1)

    def __init__(self, start_time: float = 0.0, seed: int = 0) -> None:
        from .rng import RandomStreams  # local import: rng has no engine dependency

        self.seed = int(seed)
        self.streams = RandomStreams(self.seed)
        self._now = float(start_time)
        # A heap of (time, priority, sequence, callback, args): events pop in
        # simulated-time order, FIFO among equals.  ``sequence`` is unique, so
        # a comparison never reaches the callback or its arguments.
        self._calendar: list[tuple[float, int, int, Callable[..., Any], tuple]] = []
        self._sequence = itertools.count()
        # The calendar key the loop has reached: the entry it popped last,
        # or ``(until, inf)`` once ``run(until=...)`` has run everything up
        # to ``until``.  Reserved positions are compared with it.
        self._reached: tuple = self.ORIGIN
        self._events_processed = 0
        self._running = False

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of calendar events executed so far."""
        return self._events_processed

    # -- scheduling ---------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Negative delays are rejected: simulated time is monotonic.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._calendar,
            (self._now + delay, priority, next(self._sequence), callback, args),
        )

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        self.schedule(time - self._now, callback, *args, priority=priority)

    # -- reserved positions -------------------------------------------------
    def reserve(self, delay: float) -> Tuple[float, int, int]:
        """A calendar position ``delay`` from now for an event that may never be pushed.

        The position takes its sequence number now, as :meth:`schedule`
        would, so an event pushed there later by :meth:`schedule_reserved`
        runs exactly where it would have had it been scheduled at this
        instant, and leaving the position empty moves no other event.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return (self._now + delay, 0, next(self._sequence))

    def is_pending(self, position: Tuple[float, int, int]) -> bool:
        """Whether the calendar has not yet reached a reserved ``position``."""
        return position > self._reached

    def schedule_reserved(self, position: Tuple[float, int, int],
                          callback: Callable[..., Any], *args: Any) -> None:
        """Push ``callback(*args)`` at a pending reserved ``position``."""
        heapq.heappush(self._calendar, (*position, callback, args))

    # -- execution ----------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the clock would advance past this absolute time.  The
            clock is left at ``until`` if provided.
        max_events:
            Safety valve: stop after this many events.

        Returns the simulated time at which the run stopped.

        This is the simulation's hottest loop (a figure-5 run pops millions
        of events), so the heap and ``heappop`` are bound to locals.
        Callbacks add to the calendar only through ``schedule`` and
        ``schedule_reserved``, which push onto the same list object -- the
        local alias stays valid.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        executed = 0
        calendar = self._calendar
        heappop = heapq.heappop
        try:
            while calendar:
                entry = calendar[0]
                time = entry[0]
                if until is not None and time > until:
                    self._advance_to(until)
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(calendar)
                if time < self._now:
                    raise SimulationError("event calendar corrupted: time went backwards")
                self._now = time
                self._reached = entry
                self._events_processed += 1
                entry[3](*entry[4])
                executed += 1
        finally:
            self._running = False
        if until is not None and not calendar:
            self._advance_to(until)
        return self._now

    def _advance_to(self, until: float) -> None:
        """Move the clock to ``until``: every position up to it is reached."""
        if until >= self._now:
            self._now = until
            self._reached = (until, float("inf"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now:.6f} pending={len(self._calendar)}>"
