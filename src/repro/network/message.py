"""Message types exchanged between simulated components.

Messages are small dataclasses with explicit byte-size accounting so the
network substrate can charge realistic transfer times.  The fingerprint
lookup protocol itself (requests/responses between the front-end and the hash
cluster) lives in :mod:`repro.core.protocol`; this module defines the generic
envelope used by links, switches and the RPC layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Message", "MESSAGE_HEADER_BYTES"]

#: Fixed per-message framing overhead (Ethernet + IP + TCP headers, rounded).
MESSAGE_HEADER_BYTES = 78

_message_ids = itertools.count(1)


@dataclass(slots=True)
class Message:
    """A network message.

    Attributes
    ----------
    source / destination:
        Logical endpoint names (e.g. ``"client-0"``, ``"hashnode-3"``).
    payload:
        Arbitrary application object (a protocol request/response).
    payload_bytes:
        Serialised size of the payload; combined with the framing overhead to
        compute transfer time on a link.
    created_at:
        Simulated time the message was created (set by the sender).
    """

    source: str
    destination: str
    payload: Any
    payload_bytes: int
    created_at: float = 0.0
    message_id: int = field(default_factory=lambda: next(_message_ids))
    reply_to: Optional[int] = None

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire including framing."""
        return self.payload_bytes + MESSAGE_HEADER_BYTES

    def reply(self, payload: Any, payload_bytes: int, created_at: float = 0.0) -> "Message":
        """Construct the response message travelling the reverse direction."""
        return Message(
            source=self.destination,
            destination=self.source,
            payload=payload,
            payload_bytes=payload_bytes,
            created_at=created_at,
            reply_to=self.message_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Message #{self.message_id} {self.source}->{self.destination} "
            f"{self.wire_bytes}B>"
        )
