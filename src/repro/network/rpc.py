"""Request/response RPC layer over the switch.

Components register a *service handler*; callers invoke :meth:`RpcLayer.call`
and receive an event that succeeds with the response payload once the request
has crossed the network, been processed (handler may return an event for
asynchronous processing) and the response has crossed back.

The layer knows nothing about node liveness: the web front-end splits each
batch by live replica set (``SHHCCluster.route_batch``), so a node marked
down before dispatch is simply never called.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Union

from ..simulation.engine import Event, Simulator
from .message import Message
from .switch import NetworkSwitch

__all__ = ["RpcLayer", "RpcError"]

Handler = Callable[[Any], Union[Any, "tuple[Any, int]", Event]]


class RpcError(RuntimeError):
    """Raised when an RPC is addressed to an unknown service."""


class RpcLayer:
    """Thin RPC abstraction: named services, sized payloads, response routing."""

    def __init__(self, switch: NetworkSwitch, sim: Simulator) -> None:
        self.switch = switch
        self.sim = sim
        self._services: Dict[str, Handler] = {}
        self._pending: Dict[int, Event] = {}

    # -- registration -----------------------------------------------------------------
    def register(self, endpoint: str, handler: Handler) -> None:
        """Attach ``endpoint`` to the switch (if needed) and install ``handler``.

        The handler receives the request payload and returns either:

        * a plain response payload (assumed small),
        * a ``(response_payload, response_bytes)`` tuple, or
        * an :class:`Event` succeeding with one of the above (asynchronous
          processing on the callee's side).
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
    ) -> Event:
        """Issue an RPC; the returned event succeeds with the response payload."""
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
        completion = self.sim.event("rpc.response")
        self._pending[request.message_id] = completion
        self.switch.send(request)
        return completion

    # -- message plumbing ----------------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        if message.reply_to is not None:
            self._complete_call(message)
        else:
            self._serve_request(message)

    def _serve_request(self, message: Message) -> None:
        handler = self._services.get(message.destination)
        if handler is None:
            raise RpcError(f"message for unknown service {message.destination!r}")
        result = handler(message.payload)
        if isinstance(result, Event):
            result.add_callback(lambda event: self._send_response(message, event.value))
        else:
            self._send_response(message, result)

    def _send_response(self, request: Message, result: Any) -> None:
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], int):
            response_payload, response_bytes = result
        else:
            response_payload, response_bytes = result, 64
        response = request.reply(response_payload, response_bytes, created_at=self.sim.now)
        self.switch.send(response)

    def _complete_call(self, message: Message) -> None:
        completion = self._pending.pop(message.reply_to, None)
        if completion is None:
            return
        completion.succeed(message.payload)
