"""Discrete-event simulation kernel.

The engine provides a simulated clock and an event calendar.  Higher level
abstractions (processes, resources, statistics) are layered on top in the
sibling modules.  The design follows the classic event-calendar model: an
event is a callback scheduled at an absolute simulated time; the simulator
pops events in time order and invokes them, advancing the clock.

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
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised when the simulation kernel is used incorrectly."""


class Event:
    """A one-shot synchronisation point that callbacks/processes can wait on.

    An :class:`Event` starts *pending*; it may later *succeed* with a value or
    *fail* with an exception.  Callbacks registered before triggering run when
    the event triggers; callbacks registered afterwards run immediately.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_value", "_exception", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: list[Callable[["Event"], None]] = []
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None

    # -- inspection ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has already succeeded or failed."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value.  Raises if the event failed or is pending."""
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or ``None``."""
        return self._exception

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self._dispatch()
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event triggers (or immediately if done).

        Callbacks run synchronously at the simulated instant the event
        triggers; they must not block (they may schedule further events).
        """
        if self._triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._triggered:
            state = "ok" if self._exception is None else "failed"
        return f"<Event {self.name!r} {state}>"


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

    def event(self, name: str = "") -> Event:
        """Create a new pending :class:`Event` bound to this simulator."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "timeout") -> Event:
        """Return an event that succeeds ``delay`` seconds from now."""
        event = self.event(name)
        self.schedule(delay, event.succeed, value)
        return event

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
        Callbacks add to the calendar only through ``schedule``, which
        pushes onto the same list object -- the local alias stays valid.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        executed = 0
        calendar = self._calendar
        heappop = heapq.heappop
        try:
            while calendar:
                time, _priority, _sequence, callback, args = calendar[0]
                if until is not None and time > until:
                    self._now = max(self._now, until)
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(calendar)
                if time < self._now:
                    raise SimulationError("event calendar corrupted: time went backwards")
                self._now = time
                self._events_processed += 1
                callback(*args)
                executed += 1
        finally:
            self._running = False
        if until is not None and not calendar:
            self._now = max(self._now, until)
        return self._now

    # -- composition helpers -------------------------------------------------
    def all_of(self, events: Iterable[Event], name: str = "all_of") -> Event:
        """Return an event that succeeds when every input event succeeds.

        The combined value is the list of individual values in input order.
        If any input fails, the combined event fails with that exception.
        """
        events = list(events)
        combined = self.event(name)
        if not events:
            combined.succeed([])
            return combined
        remaining = {"count": len(events)}

        def _on_trigger(_event: Event) -> None:
            if combined.triggered:
                return
            if _event.exception is not None:
                combined.fail(_event.exception)
                return
            remaining["count"] -= 1
            if remaining["count"] == 0:
                combined.succeed([e.value for e in events])

        for event in events:
            event.add_callback(_on_trigger)
        return combined

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now:.6f} pending={len(self._calendar)}>"
