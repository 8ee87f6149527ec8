"""Wire protocol between the web front-end tier and the hash cluster.

Requests carry fingerprints (singly or in batches); responses report, per
fingerprint, whether the chunk already exists in the cloud and which tier of
the hybrid node served the answer.  Message sizes are modelled explicitly so
the network substrate charges realistic transfer times -- the contrast
between per-fingerprint messages and batched messages is exactly what the
paper's Figure 5 measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Sequence

from ..dedup.fingerprint import FINGERPRINT_BYTES, Fingerprint, column_builder

__all__ = [
    "ServedFrom",
    "LookupReply",
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


@dataclass(frozen=True, slots=True)
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


#: Tier codes of the batch serve contract
#: (:meth:`~repro.core.hash_node.HybridHashNode.serve_bucket_verdicts`), as
#: an index into :class:`ServedFrom`.  ``0`` is the only falsy code, so a
#: tier's truthiness is its duplicate verdict.  Nodes emit ``0``-``2``; the
#: cluster rewrites a ``0`` to ``3`` when another replica already held the
#: fingerprint.
SERVED_FROM_TIER = (ServedFrom.NEW, ServedFrom.RAM, ServedFrom.SSD, ServedFrom.REPAIR)

_build_replies = column_builder(LookupReply)


def replies_from_tiers(
    fingerprints: Sequence[Fingerprint],
    tiers: Sequence[int],
    service_times: Iterable[float],
    node_ids: Iterable[str],
) -> List[LookupReply]:
    """The :class:`LookupReply` view over a served batch's parallel columns."""
    return _build_replies(
        len(tiers),
        fingerprints,
        map(bool, tiers),
        map(SERVED_FROM_TIER.__getitem__, tiers),
        node_ids,
        service_times,
    )


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
