"""The ``Resource``-port network link and the switch over it, kept as the reference model.

The link used to hold its port as a capacity-1
:class:`~repro.simulation.resources.Resource`: every message requested a
grant ``Event``, and the grant's callback scheduled the port release and the
delivery, whose ``Event`` succeeded with the message after ``on_delivery``
ran.  The switch chained the source's uplink to the destination's downlink
through those events and returned one of its own.
``repro.network.link.NetworkLink`` now keeps the time its port frees and a
FIFO queue, with no ``Event`` in between, and pushes a release only when a
message waits for it; the differential suite
(``tests/test_link_differential.py``) holds the two to the same delivery
order and times, and the engine's event count to this model's less its
releases that found no message waiting (:attr:`ResourceLink.idle_releases`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.network.message import Message
from repro.simulation.engine import Simulator
from repro.simulation.resources import Resource

from .event_path import Event, request_slot


class ResourceLink:
    def __init__(self, sim: Simulator, latency: float, bandwidth: float, name: str = "link") -> None:
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.name = name
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Port releases that found no message waiting for the port.
        self.idle_releases = 0
        self._port = Resource(sim, capacity=1, name=f"{name}.port")

    def transmission_time(self, wire_bytes: int) -> float:
        return wire_bytes / self.bandwidth

    def total_time(self, wire_bytes: int) -> float:
        return self.latency + self.transmission_time(wire_bytes)

    def send(self, message: Message, on_delivery: Optional[Callable[[Message], None]] = None) -> Event:
        """Transmit ``message``; the returned event succeeds with it on arrival."""
        self.messages_sent += 1
        self.bytes_sent += message.wire_bytes
        service_time = self.total_time(message.wire_bytes)
        sim = self.sim
        done = Event(sim, f"{self.name}.delivery")
        grant = request_slot(sim, self._port)

        def _start(_grant_event: Event) -> None:
            # The port is held for the serialisation time only; propagation
            # overlaps with the next message's serialisation.
            def _release_port() -> None:
                self.idle_releases += not self._port._queue
                self._port.release()

            def _deliver() -> None:
                if on_delivery is not None:
                    on_delivery(message)
                done.succeed(message)

            sim.schedule(self.transmission_time(message.wire_bytes), _release_port)
            sim.schedule(service_time, _deliver)

        grant.add_callback(_start)
        return done


class ResourceSwitch:
    """Per-endpoint uplink/downlink pairs of :class:`ResourceLink`."""

    def __init__(self, sim: Simulator, latency: float, bandwidth: float, name: str = "switch") -> None:
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.name = name
        self._uplinks: Dict[str, ResourceLink] = {}
        self._downlinks: Dict[str, ResourceLink] = {}
        self._handlers: Dict[str, Callable[[Message], None]] = {}

    def attach(self, endpoint: str, handler: Optional[Callable[[Message], None]] = None) -> None:
        half_latency = self.latency / 2.0
        self._uplinks[endpoint] = ResourceLink(
            self.sim, half_latency, self.bandwidth, name=f"{self.name}.{endpoint}.up")
        self._downlinks[endpoint] = ResourceLink(
            self.sim, half_latency, self.bandwidth, name=f"{self.name}.{endpoint}.down")
        if handler is not None:
            self._handlers[endpoint] = handler

    def send(self, message: Message) -> Event:
        """Uplink then downlink; the event succeeds after the handler has run."""
        uplink = self._uplinks[message.source]
        downlink = self._downlinks[message.destination]
        destination = message.destination
        done = Event(self.sim, f"{self.name}.deliver")

        def _at_switch(_uplink_event: Event) -> None:
            second_leg = downlink.send(message, self._handlers.get(destination))
            second_leg.add_callback(lambda _e: done.succeed(message))

        uplink.send(message).add_callback(_at_switch)
        return done

    @property
    def idle_releases(self) -> int:
        """:attr:`ResourceLink.idle_releases` summed over every link."""
        return sum(link.idle_releases
                   for links in (self._uplinks, self._downlinks) for link in links.values())
