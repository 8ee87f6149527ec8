"""Wire protocol between the web front-end tier and the hash cluster.

Requests carry fingerprints (singly or in batches); responses report, per
fingerprint, whether the chunk already exists in the cloud and which tier of
the hybrid node served the answer.  Message sizes are modelled explicitly so
the network substrate charges realistic transfer times -- the contrast
between per-fingerprint messages and batched messages is exactly what the
paper's Figure 5 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Sequence

from ..dedup.fingerprint import FINGERPRINT_BYTES, Fingerprint

__all__ = [
    "ServedFrom",
    "LookupRequest",
    "LookupReply",
    "make_lookup_reply",
    "SERVED_FROM_TIER",
    "replies_from_tiers",
    "BatchLookupRequest",
    "BatchLookupReply",
    "REQUEST_OVERHEAD_BYTES",
    "REPLY_BYTES_PER_FINGERPRINT",
]

#: Fixed serialisation overhead of a lookup request (opcode, ids, lengths).
REQUEST_OVERHEAD_BYTES = 16

#: Bytes per fingerprint verdict in a reply (digest prefix + flags).
REPLY_BYTES_PER_FINGERPRINT = 9


class ServedFrom(str, Enum):
    """Which tier of the hybrid node answered a lookup."""

    RAM = "ram"
    SSD = "ssd"
    NEW = "new"  # fingerprint was not present anywhere; inserted as unique
    REPAIR = "repair"  # serving node missed, but a replica held the fingerprint (read repair)


@dataclass(frozen=True)
class LookupRequest:
    """Query for a single fingerprint."""

    fingerprint: Fingerprint
    client_id: str = ""

    @property
    def payload_bytes(self) -> int:
        return REQUEST_OVERHEAD_BYTES + FINGERPRINT_BYTES


@dataclass(frozen=True)
class LookupReply:
    """Verdict for a single fingerprint."""

    fingerprint: Fingerprint
    is_duplicate: bool
    served_from: ServedFrom
    node_id: str = ""
    service_time: float = 0.0

    @property
    def payload_bytes(self) -> int:
        return REQUEST_OVERHEAD_BYTES + REPLY_BYTES_PER_FINGERPRINT


def make_lookup_reply(
    fingerprint: Fingerprint,
    is_duplicate: bool,
    served_from: ServedFrom,
    node_id: str,
    service_time: float,
) -> LookupReply:
    """Hot-path :class:`LookupReply` constructor.

    A frozen dataclass pays one ``object.__setattr__`` per field on
    construction; at millions of replies that is a measurable share of the
    cluster lookup path.  This helper writes the instance ``__dict__``
    directly, producing an object field-, ``==``- and ``hash``-identical
    to the regular constructor (pinned by
    tests/test_routed_batch_equivalence.py, so a new :class:`LookupReply`
    field breaks tests rather than silently desynchronizing).  Keep the
    field writes in sync with :class:`LookupReply`.
    """
    reply = object.__new__(LookupReply)
    fields = reply.__dict__
    fields["fingerprint"] = fingerprint
    fields["is_duplicate"] = is_duplicate
    fields["served_from"] = served_from
    fields["node_id"] = node_id
    fields["service_time"] = service_time
    return reply


#: Tier codes of the batch serve contract
#: (:meth:`~repro.core.hash_node.HybridHashNode.serve_bucket_verdicts`), as
#: an index into :class:`ServedFrom`.  ``0`` is the only falsy code, so a
#: tier's truthiness is its duplicate verdict.  Nodes emit ``0``-``2``; the
#: cluster rewrites a ``0`` to ``3`` when another replica already held the
#: fingerprint.
SERVED_FROM_TIER = (ServedFrom.NEW, ServedFrom.RAM, ServedFrom.SSD, ServedFrom.REPAIR)


def replies_from_tiers(
    fingerprints: Iterable[Fingerprint],
    tiers: Iterable[int],
    service_times: Iterable[float],
    node_ids: Iterable[str],
) -> List[LookupReply]:
    """The :class:`LookupReply` view over a served batch's parallel columns."""
    served_from = SERVED_FROM_TIER
    return [
        make_lookup_reply(fingerprint, tier != 0, served_from[tier], node_id, service_time)
        for fingerprint, tier, service_time, node_id in zip(
            fingerprints, tiers, service_times, node_ids
        )
    ]


@dataclass(frozen=True)
class BatchLookupRequest:
    """Query for a batch of fingerprints destined for one hash node.

    The web front-end aggregates client fingerprints and forwards them in
    batches (paper batch sizes: 1, 128, 2048) to amortise per-message network
    and CPU overhead while preserving stream locality.
    """

    fingerprints: Sequence[Fingerprint]
    client_id: str = ""
    batch_id: int = 0

    def __post_init__(self) -> None:
        if not self.fingerprints:
            raise ValueError("a batch must contain at least one fingerprint")

    def __len__(self) -> int:
        return len(self.fingerprints)

    @property
    def payload_bytes(self) -> int:
        return REQUEST_OVERHEAD_BYTES + FINGERPRINT_BYTES * len(self.fingerprints)


@dataclass(frozen=True)
class BatchLookupReply:
    """Verdicts for a batch, in the same order as the request."""

    replies: Sequence[LookupReply]
    node_id: str = ""
    batch_id: int = 0

    def __len__(self) -> int:
        return len(self.replies)

    @property
    def payload_bytes(self) -> int:
        return REQUEST_OVERHEAD_BYTES + REPLY_BYTES_PER_FINGERPRINT * len(self.replies)

    @property
    def duplicates(self) -> int:
        return sum(1 for reply in self.replies if reply.is_duplicate)

    @property
    def uniques(self) -> int:
        return len(self.replies) - self.duplicates

    def unique_fingerprints(self) -> List[Fingerprint]:
        """Fingerprints the client must upload (not yet in the cloud)."""
        return [reply.fingerprint for reply in self.replies if not reply.is_duplicate]
