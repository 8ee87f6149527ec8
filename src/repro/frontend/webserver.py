"""Web front-end servers.

A web front-end server (paper §III.A, Figure 2) receives backup requests
from clients, queries the hash cluster for the existence of each submitted
fingerprint -- batching the queries per hash node to exploit chunk locality --
and answers with one verdict per fingerprint, from which the client's upload
plan follows.  Each web server is an RPC service of the simulated
deployment; client requests and node queries all travel over the simulated
fabric, so front-end fan-out latency and node queueing compose the
end-to-end response time.  The library backup path is
:class:`~repro.dedup.archive.DirectoryArchiver` over the cluster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import List, Sequence

from ..core.cluster import SHHCCluster
from ..core.protocol import BatchLookupReply, merge_by_position
from ..dedup.fingerprint import FINGERPRINT_BYTES, Fingerprint
from ..network.rpc import Respond, RpcLayer

__all__ = ["ClientBatchRequest", "ClientBatchResponse", "WebFrontEnd"]

#: The web server's own processing time per client request, spent before
#: the fan-out (seconds).
PER_REQUEST_OVERHEAD = 30e-6


@dataclass(frozen=True)
class ClientBatchRequest:
    """A client's backup query: a batch of fingerprints to check."""

    client_id: str
    fingerprints: Sequence[Fingerprint]
    request_id: int = 0

    def __post_init__(self) -> None:
        if not self.fingerprints:
            raise ValueError("a client batch must contain at least one fingerprint")

    @property
    def payload_bytes(self) -> int:
        return 32 + FINGERPRINT_BYTES * len(self.fingerprints)


@dataclass(frozen=True)
class ClientBatchResponse:
    """The front-end's answer: per-fingerprint verdict columns.

    ``tiers``, ``service_times`` and ``node_ids`` are parallel to the
    request's ``fingerprints``; ``tiers`` index
    :data:`~repro.core.protocol.SERVED_FROM_TIER`, so a falsy tier is a
    chunk the client must upload.
    """

    client_id: str
    fingerprints: Sequence[Fingerprint]
    tiers: List[int]
    service_times: Sequence[float]
    node_ids: Sequence[str]
    request_id: int = 0

    @property
    def duplicates(self) -> int:
        return len(self.tiers) - self.tiers.count(0)

    @property
    def payload_bytes(self) -> int:
        return 32 + 9 * len(self.tiers)


class WebFrontEnd:
    """One web server of the front-end cluster, an RPC service on ``rpc``."""

    def __init__(self, server_id: str, cluster: SHHCCluster, rpc: RpcLayer) -> None:
        self.server_id = server_id
        self.cluster = cluster
        self.rpc = rpc
        self._request_ids = itertools.count(1)

    def register(self) -> None:
        """Expose this web server as an RPC service on the fabric."""
        self.rpc.register(self.server_id, self._handle)

    def _handle(self, request: ClientBatchRequest, respond: Respond) -> None:
        """Fan the batch out to the owning hash nodes and gather the replies."""
        # Model the web server's own per-request processing before fan-out.
        self.rpc.sim.schedule(PER_REQUEST_OVERHEAD, self._dispatch, request, respond)

    def _dispatch(self, request: ClientBatchRequest, respond: Respond) -> None:
        # Route each fingerprint to the first live node of its own replica
        # set so batches keep finding their data while nodes are down, and
        # stamp the client's request id on the sub-batches so node replies
        # can be correlated with this request.  The split runs here, after
        # the per-request overhead and at the same simulated instant as the
        # calls, so it routes by the liveness at dispatch, not at the
        # request's arrival.  Routing reads the partitioner's boundary table
        # through the cluster (grouping-identical to
        # tests/oracles/batch_routing.py), so every front-end routes by one
        # rule.
        per_node = self.cluster.route_batch(
            request.fingerprints,
            client_id=request.client_id,
            batch_id=request.request_id if request.request_id else next(self._request_ids),
        )
        groups: list = []

        def _gather(positions: Sequence[int], reply: BatchLookupReply) -> None:
            groups.append((positions, reply.tiers, reply.service_times,
                           itertools.repeat(reply.node_id)))
            if len(groups) == len(per_node):
                # Every node has answered: merge the columns by position once.
                tiers, service_times, node_ids = merge_by_position(
                    len(request.fingerprints), groups
                )
                response = ClientBatchResponse(
                    request.client_id, request.fingerprints, tiers, service_times, node_ids,
                    request.request_id,
                )
                respond(response, response.payload_bytes)

        for node_name, (node_request, positions) in per_node.items():
            self.rpc.call(self.server_id, node_name, node_request, node_request.payload_bytes,
                          partial(_gather, positions))
