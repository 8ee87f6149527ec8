"""Per-key verdict objects: the reference models' output type.

The product answers a batch as columns -- tier codes
(:data:`~repro.core.protocol.SERVED_FROM_TIER`), service times and serving
node ids -- and builds per-key objects only at the ``ChunkIndex`` boundary
(``LookupResult``).  The reference models (``oracles.node_reference``,
``oracles.cluster_reference``, ``oracles.event_path``) answer one
:class:`LookupReply` per key instead, so a differential test lifts the
product's columns into the same shape with the helpers below and compares
lists.

* :func:`replies_from_tiers` -- the ``LookupReply`` view over a served
  batch's parallel columns;
* :func:`node_lookup_batch` / :func:`node_lookup` -- a node's batch
  contract (``serve_bucket_verdicts``) as replies, feeding the modelled
  service times to ``lookup_latency`` as a cluster serve does;
* :func:`cluster_lookup_batch` / :func:`cluster_lookup` -- the cluster's
  ``lookup_batch_columns`` as replies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, List, Sequence

from repro.core.digest_batch import DigestBatch
from repro.core.protocol import (
    REPLY_BYTES_PER_FINGERPRINT,
    REQUEST_OVERHEAD_BYTES,
    SERVED_FROM_TIER,
    ServedFrom,
)
from repro.dedup.fingerprint import Fingerprint, column_builder


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


def node_lookup_batch(node, fingerprints: Sequence[Fingerprint]) -> List[LookupReply]:
    """Serve ``fingerprints`` through ``node``'s batch contract, as replies.

    The modelled service times are recorded in ``node.lookup_latency``, as
    the cluster's routed core records a bucket's.
    """
    fingerprints = list(fingerprints)
    tiers, service_times, _new_pairs = node.serve_bucket_verdicts(
        DigestBatch.from_fingerprints(fingerprints)
    )
    node.lookup_latency.add_many(service_times)
    return replies_from_tiers(fingerprints, tiers, service_times, repeat(node.node_id))


def node_lookup(node, fingerprint: Fingerprint) -> LookupReply:
    """One key through ``node``'s batch contract: a one-key :func:`node_lookup_batch`."""
    return node_lookup_batch(node, [fingerprint])[0]


def cluster_lookup_batch(cluster, fingerprints: Sequence[Fingerprint]) -> List[LookupReply]:
    """``cluster.lookup_batch_columns`` as replies (read repairs included)."""
    fingerprints = list(fingerprints)
    return replies_from_tiers(fingerprints, *cluster.lookup_batch_columns(fingerprints))


def cluster_lookup(cluster, fingerprint: Fingerprint) -> LookupReply:
    """One key through the cluster: a one-key :func:`cluster_lookup_batch`."""
    return cluster_lookup_batch(cluster, [fingerprint])[0]
