"""Point-to-point network link model.

Each link has a propagation latency and a bandwidth and serialises the
transmission of messages (one frame at a time), which is what produces the
batching benefit the paper observes: many small request messages pay the
per-message latency repeatedly, while one batched message pays it once.

Defaults model the paper's testbed fabric: 1 Gb/s Ethernet through a single
switch with ~100 µs end-to-end latency (two hops of 50 µs).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from ..simulation.engine import Simulator
from .message import Message

__all__ = ["NetworkLink", "GIGABIT_BANDWIDTH", "DEFAULT_LINK_LATENCY"]

#: 1 Gb/s expressed in bytes per second.
GIGABIT_BANDWIDTH = 125e6

#: One-way latency of a single switched gigabit hop (seconds).
DEFAULT_LINK_LATENCY = 50e-6


def _discard(_message: Message) -> None:
    """Arrival of a message nobody hooked."""


class NetworkLink:
    """A unidirectional link with latency, bandwidth and FIFO serialisation.

    Parameters
    ----------
    sim:
        Simulator the link schedules its deliveries on.
    latency:
        Propagation + switching latency per message, seconds.
    bandwidth:
        Bytes per second of throughput.
    name:
        Identifier used in statistics output.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: float = DEFAULT_LINK_LATENCY,
        bandwidth: float = GIGABIT_BANDWIDTH,
        name: str = "link",
    ) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.name = name
        self.messages_sent = 0
        self.bytes_sent = 0
        # Where the port's release sits in the calendar: reserved when a
        # message starts serialising, pushed only once a message waits.
        self._release_at = Simulator.ORIGIN
        self._waiting: Deque[Tuple[Message, Optional[Callable[[Message], None]]]] = deque()

    # -- cost model -----------------------------------------------------------------
    def transmission_time(self, wire_bytes: int) -> float:
        """Serialisation time of ``wire_bytes`` on this link (excludes latency)."""
        return wire_bytes / self.bandwidth

    def total_time(self, wire_bytes: int) -> float:
        """Unloaded delivery time for a message of ``wire_bytes``."""
        return self.latency + self.transmission_time(wire_bytes)

    # -- delivery ---------------------------------------------------------------------
    def send(self, message: Message, on_delivery: Optional[Callable[[Message], None]] = None) -> None:
        """Transmit ``message``; ``on_delivery(message)`` (if given) runs at arrival.

        The hook is the usual way a receiving component takes its input.
        Messages wait FIFO for the port.
        """
        self.messages_sent += 1
        self.bytes_sent += message.wire_bytes
        if self._waiting:
            self._waiting.append((message, on_delivery))
        elif self.sim.is_pending(self._release_at):
            self._waiting.append((message, on_delivery))
            self.sim.schedule_reserved(self._release_at, self._release)
        else:
            self._transmit(message, on_delivery)

    def _transmit(self, message: Message, on_delivery) -> None:
        # The port is held for the serialisation time only; propagation
        # overlaps with the next message's serialisation.  The release keeps
        # the calendar position it would have as an event pushed now, just
        # before the delivery, but is pushed only when a message waits for
        # it: an idle port's release changes nothing.  Equal-time events run
        # in push order, and a port read from a bare busy-until time would
        # reorder a send at the instant the port frees.
        transmission = self.transmission_time(message.wire_bytes)
        self._release_at = self.sim.reserve(transmission)
        if self._waiting:
            self.sim.schedule_reserved(self._release_at, self._release)
        self.sim.schedule(self.latency + transmission,
                          _discard if on_delivery is None else on_delivery, message)

    def _release(self) -> None:
        self._transmit(*self._waiting.popleft())

    # -- reporting -----------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "messages": self.messages_sent,
            "bytes": self.bytes_sent,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NetworkLink {self.name} msgs={self.messages_sent}>"
