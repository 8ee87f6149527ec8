"""Point-to-point network link model.

Each link has a propagation latency and a bandwidth and serialises the
transmission of messages (one frame at a time), which is what produces the
batching benefit the paper observes: many small request messages pay the
per-message latency repeatedly, while one batched message pays it once.

Defaults model the paper's testbed fabric: 1 Gb/s Ethernet through a single
switch with ~100 µs end-to-end latency (two hops of 50 µs).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..simulation.engine import Event, Simulator
from ..simulation.resources import Resource
from .message import Message

__all__ = ["NetworkLink", "GIGABIT_BANDWIDTH", "DEFAULT_LINK_LATENCY"]

#: 1 Gb/s expressed in bytes per second.
GIGABIT_BANDWIDTH = 125e6

#: One-way latency of a single switched gigabit hop (seconds).
DEFAULT_LINK_LATENCY = 50e-6


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
        self._port = Resource(sim, capacity=1, name=f"{name}.port")

    # -- cost model -----------------------------------------------------------------
    def transmission_time(self, wire_bytes: int) -> float:
        """Serialisation time of ``wire_bytes`` on this link (excludes latency)."""
        return wire_bytes / self.bandwidth

    def total_time(self, wire_bytes: int) -> float:
        """Unloaded delivery time for a message of ``wire_bytes``."""
        return self.latency + self.transmission_time(wire_bytes)

    # -- delivery ---------------------------------------------------------------------
    def send(self, message: Message, on_delivery: Optional[Callable[[Message], None]] = None) -> Event:
        """Transmit ``message``; the returned event succeeds with it on arrival.

        ``on_delivery`` (if given) is invoked with the message at arrival
        time -- the usual way a receiving component hooks its input queue.
        """
        self.messages_sent += 1
        self.bytes_sent += message.wire_bytes
        service_time = self.total_time(message.wire_bytes)
        sim = self.sim
        done = sim.event(f"{self.name}.delivery")
        grant = self._port.request()

        def _start(_grant_event: Event) -> None:
            # The port is held for the serialisation time only; propagation
            # overlaps with the next message's serialisation.
            def _release_port() -> None:
                self._port.release()

            def _deliver() -> None:
                if on_delivery is not None:
                    on_delivery(message)
                done.succeed(message)

            sim.schedule(self.transmission_time(message.wire_bytes), _release_port)
            sim.schedule(service_time, _deliver)

        grant.add_callback(_start)
        return done

    # -- reporting -----------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "messages": self.messages_sent,
            "bytes": self.bytes_sent,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NetworkLink {self.name} msgs={self.messages_sent}>"
