"""Generator-based processes on top of the event kernel.

A *process* is a Python generator that yields :class:`~repro.simulation.engine.Event`
objects (or plain floats, treated as timeouts).  Each yield suspends the
process until the yielded event triggers; the event's value is sent back into
the generator.  This gives sequential-looking code for inherently concurrent
behaviour -- clients issuing requests, servers draining queues, devices
performing transfers.

Example
-------
>>> from repro.simulation import Simulator, run_process
>>> def worker(sim, log):
...     yield sim.timeout(1.0)
...     log.append(sim.now)
...     yield sim.timeout(2.0)
...     log.append(sim.now)
...     return "done"
>>> sim = Simulator()
>>> log = []
>>> proc = run_process(sim, worker(sim, log))
>>> sim.run()
3.0
>>> (log, proc.value)
([1.0, 3.0], 'done')
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Union

from .engine import Event, SimulationError, Simulator

__all__ = ["Process", "run_process"]

Yieldable = Union[Event, float, int]


class Process(Event):
    """A running process.  Also an :class:`Event` that triggers on completion.

    The completion value is the generator's ``return`` value; if the generator
    raises, the process event fails with that exception (propagating it to any
    process waiting on this one).
    """

    def __init__(self, sim: Simulator, generator: Generator[Yieldable, Any, Any], name: str = "") -> None:
        super().__init__(sim, name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator (did you call the function?)")
        self._generator = generator
        # Kick off the process at the current simulated instant.
        sim.schedule(0.0, self._resume, None, None)

    # -- lifecycle ----------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """Whether the process has not yet finished."""
        return not self.triggered

    # -- internal machinery ---------------------------------------------------
    def _resume(self, value: Any, exception: Optional[BaseException]) -> None:
        try:
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via the event
            self.fail(exc)
            return
        try:
            event = self._coerce(target)
        except SimulationError as exc:
            self._generator.close()
            self.fail(exc)
            return
        event.add_callback(self._on_event)

    def _coerce(self, target: Yieldable) -> Event:
        if isinstance(target, Event):
            return target
        if isinstance(target, (int, float)):
            return self.sim.timeout(float(target))
        raise SimulationError(
            f"process {self.name!r} yielded {target!r}; expected an Event or a delay"
        )

    def _on_event(self, event: Event) -> None:
        if event.exception is not None:
            self._resume(None, event.exception)
        else:
            self._resume(event.value, None)


def run_process(sim: Simulator, generator: Generator[Yieldable, Any, Any], name: str = "") -> Process:
    """Start ``generator`` as a process on ``sim`` and return its handle."""
    return Process(sim, generator, name)
