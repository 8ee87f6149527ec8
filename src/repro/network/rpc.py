"""Request/response RPC layer over the switch.

Components register a *service handler*; callers invoke :meth:`RpcLayer.call`
with a callback that receives the response payload once the request has
crossed the network, been processed and the response has crossed back.  A
handler answers through the ``respond(payload, payload_bytes)`` callable it
is handed, at once or from a later callback of its own; the response size
is always stated by the handler, never guessed from the payload.

The layer knows nothing about node liveness: the web front-end splits each
batch by live replica set (``SHHCCluster.route_batch``), so a node marked
down before dispatch is simply never called.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Optional

from ..simulation.engine import Simulator
from .message import Message
from .switch import NetworkSwitch

__all__ = ["RpcLayer", "RpcError"]

#: ``respond(response_payload, response_bytes)``, handed to every handler.
Respond = Callable[[Any, int], None]
Handler = Callable[[Any, Respond], None]


class RpcError(RuntimeError):
    """Raised when an RPC is addressed to an unknown service."""


class RpcLayer:
    """Thin RPC abstraction: named services, sized payloads, response routing."""

    def __init__(self, switch: NetworkSwitch, sim: Simulator) -> None:
        self.switch = switch
        self.sim = sim
        self._services: Dict[str, Handler] = {}
        self._pending: Dict[int, Callable[[Any], None]] = {}

    # -- registration -----------------------------------------------------------------
    def register(self, endpoint: str, handler: Handler) -> None:
        """Attach ``endpoint`` to the switch (if needed) and install ``handler``.

        The handler is called as ``handler(request_payload, respond)`` when a
        request arrives, and answers by calling ``respond(response_payload,
        response_bytes)`` exactly once -- before returning, or later from a
        callback of its own (asynchronous processing on the callee's side).
        """
        if not self.switch.is_attached(endpoint):
            self.switch.attach(endpoint)
        self._services[endpoint] = handler
        self.switch.set_handler(endpoint, self._on_message)

    def register_client(self, endpoint: str) -> None:
        """Attach a call-only endpoint (no service handler)."""
        if not self.switch.is_attached(endpoint):
            self.switch.attach(endpoint)
        self.switch.set_handler(endpoint, self._on_message)

    # -- calling ---------------------------------------------------------------------
    def call(
        self,
        source: str,
        destination: str,
        payload: Any,
        payload_bytes: int,
        on_response: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Issue an RPC; ``on_response(response_payload)`` runs when the answer arrives.

        Without ``on_response`` the answer still crosses the network and is
        dropped on arrival.
        """
        if destination not in self._services:
            raise RpcError(f"no service registered at {destination!r}")
        if not self.switch.is_attached(source):
            self.register_client(source)
        request = Message(
            source=source,
            destination=destination,
            payload=payload,
            payload_bytes=payload_bytes,
            created_at=self.sim.now,
        )
        if on_response is not None:
            self._pending[request.message_id] = on_response
        self.switch.send(request)

    # -- message plumbing ----------------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        if message.reply_to is not None:
            on_response = self._pending.pop(message.reply_to, None)
            if on_response is not None:
                on_response(message.payload)
            return
        handler = self._services.get(message.destination)
        if handler is None:
            raise RpcError(f"message for unknown service {message.destination!r}")
        handler(message.payload, partial(self._send_response, message))

    def _send_response(self, request: Message, payload: Any, payload_bytes: int) -> None:
        self.switch.send(request.reply(payload, payload_bytes, created_at=self.sim.now))
