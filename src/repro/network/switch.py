"""A star-topology Ethernet switch connecting named endpoints.

The paper's testbed connects all machines through one 1 Gb/s switch.  The
switch here owns a pair of directed :class:`~repro.network.link.NetworkLink`
objects per endpoint (uplink to the switch, downlink from it), so that each
host's NIC is the serialisation point -- the behaviour that limits a single
hash server's achievable request rate and that batching amortises.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..simulation.engine import Simulator
from .link import DEFAULT_LINK_LATENCY, GIGABIT_BANDWIDTH, NetworkLink
from .message import Message

__all__ = ["NetworkSwitch"]


class NetworkSwitch:
    """A full-duplex switch with per-endpoint uplink/downlink pairs."""

    def __init__(
        self,
        sim: Simulator,
        latency: float = DEFAULT_LINK_LATENCY,
        bandwidth: float = GIGABIT_BANDWIDTH,
        name: str = "switch",
    ) -> None:
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.name = name
        self._uplinks: Dict[str, NetworkLink] = {}
        self._downlinks: Dict[str, NetworkLink] = {}
        self._handlers: Dict[str, Callable[[Message], None]] = {}

    # -- membership ---------------------------------------------------------------
    def attach(self, endpoint: str, handler: Optional[Callable[[Message], None]] = None) -> None:
        """Register ``endpoint`` and (optionally) its message delivery handler."""
        if endpoint in self._uplinks:
            raise ValueError(f"endpoint {endpoint!r} is already attached")
        half_latency = self.latency / 2.0
        self._uplinks[endpoint] = NetworkLink(
            self.sim, half_latency, self.bandwidth, name=f"{self.name}.{endpoint}.up"
        )
        self._downlinks[endpoint] = NetworkLink(
            self.sim, half_latency, self.bandwidth, name=f"{self.name}.{endpoint}.down"
        )
        if handler is not None:
            self._handlers[endpoint] = handler

    def set_handler(self, endpoint: str, handler: Callable[[Message], None]) -> None:
        """Install or replace the delivery handler for ``endpoint``."""
        if endpoint not in self._uplinks:
            raise KeyError(f"endpoint {endpoint!r} is not attached")
        self._handlers[endpoint] = handler

    def endpoints(self) -> list:
        """Names of all attached endpoints."""
        return sorted(self._uplinks)

    def is_attached(self, endpoint: str) -> bool:
        return endpoint in self._uplinks

    # -- delivery ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Route ``message`` from its source endpoint to its destination.

        The message traverses the source's uplink then the destination's
        downlink, whose arrival runs the destination's handler (if any).
        """
        source, destination = message.source, message.destination
        if source not in self._uplinks:
            raise KeyError(f"source endpoint {source!r} is not attached")
        if destination not in self._downlinks:
            raise KeyError(f"destination endpoint {destination!r} is not attached")
        self._uplinks[source].send(message, self._at_switch)

    def _at_switch(self, message: Message) -> None:
        destination = message.destination
        self._downlinks[destination].send(message, self._handlers.get(destination))

    # -- reporting -------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-endpoint traffic counters."""
        return {
            endpoint: {
                "sent_messages": self._uplinks[endpoint].messages_sent,
                "sent_bytes": self._uplinks[endpoint].bytes_sent,
                "received_messages": self._downlinks[endpoint].messages_sent,
                "received_bytes": self._downlinks[endpoint].bytes_sent,
            }
            for endpoint in self._uplinks
        }

    def total_bytes(self) -> int:
        """Total bytes that crossed the switch fabric (counted once per leg)."""
        return sum(link.bytes_sent for link in self._uplinks.values()) + sum(
            link.bytes_sent for link in self._downlinks.values()
        )
