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
from itertools import compress, repeat
from operator import not_
from typing import Iterable, List, Optional, Sequence, Tuple

from ..dedup.fingerprint import FINGERPRINT_BYTES, Fingerprint, column_builder

__all__ = [
    "ServedFrom",
    "LookupReply",
    "SERVED_FROM_TIER",
    "replies_from_tiers",
    "merge_by_position",
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


def merge_by_position(
    total: int,
    groups: Iterable[Tuple[Sequence[int], Sequence[int], Sequence[float], Iterable[str]]],
) -> Tuple[List[int], List[float], List[str]]:
    """Scatter per-node column groups back into the request's order.

    Each group is ``(positions, tiers, service_times, node_ids)`` for one
    node's share of a batch of ``total`` keys; the result is the three
    merged columns.  A group whose tiers and positions differ in length, or
    a position no group answers, is a ``ValueError``.
    """
    tiers: List[Optional[int]] = [None] * total
    service_times = [0.0] * total
    node_ids = [""] * total
    for positions, group_tiers, group_times, group_nodes in groups:
        if len(group_tiers) != len(positions):
            raise ValueError("reply length does not match recorded positions")
        for position, tier, service_time, node_id in zip(
            positions, group_tiers, group_times, group_nodes
        ):
            tiers[position] = tier
            service_times[position] = service_time
            node_ids[position] = node_id
    if None in tiers:
        missing = [index for index, tier in enumerate(tiers) if tier is None]
        raise ValueError(f"missing replies for positions {missing[:5]}")
    return tiers, service_times, node_ids


@dataclass(frozen=True)
class BatchLookupRequest:
    """Query for a batch of fingerprints destined for one hash node.

    The web front-end aggregates client fingerprints and forwards them in
    batches (paper batch sizes: 1, 128, 2048) to amortise per-message network
    and CPU overhead while preserving stream locality.  ``digests``, when
    the router already extracted them, ride along so the node does not.
    """

    fingerprints: Sequence[Fingerprint]
    client_id: str = ""
    batch_id: int = 0
    digests: Optional[List[bytes]] = field(default=None, compare=False, repr=False)

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
    """Verdicts for a batch, in the same order as the request.

    The node's batch contract as columns: ``tiers`` index
    :data:`SERVED_FROM_TIER` (truthy = duplicate), ``service_times`` is
    parallel to it.  :attr:`replies` is the :class:`LookupReply` view,
    built only when asked for.
    """

    fingerprints: Sequence[Fingerprint]
    tiers: List[int]
    service_times: Sequence[float]
    node_id: str = ""
    batch_id: int = 0

    def __len__(self) -> int:
        return len(self.tiers)

    @property
    def replies(self) -> List[LookupReply]:
        return replies_from_tiers(
            self.fingerprints, self.tiers, self.service_times, repeat(self.node_id)
        )

    @property
    def payload_bytes(self) -> int:
        return REQUEST_OVERHEAD_BYTES + REPLY_BYTES_PER_FINGERPRINT * len(self.tiers)

    @property
    def duplicates(self) -> int:
        return len(self.tiers) - self.tiers.count(0)

    @property
    def uniques(self) -> int:
        return self.tiers.count(0)

    def unique_fingerprints(self) -> List[Fingerprint]:
        """Fingerprints the client must upload (not yet in the cloud)."""
        return list(compress(self.fingerprints, map(not_, self.tiers)))
