"""Web front-end servers.

A web front-end server (paper §III.A, Figure 2) receives backup requests
from clients, queries the hash cluster for the existence of each submitted
fingerprint -- batching the queries per hash node to exploit chunk locality --
and returns an upload plan.  In the simulated deployment each web server is
an RPC service; client requests and node queries all travel over the
simulated fabric, so front-end fan-out latency and node queueing compose the
end-to-end response time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from ..core.cluster import SHHCCluster
from ..core.protocol import BatchLookupReply, LookupReply, merge_by_position, replies_from_tiers
from ..dedup.fingerprint import FINGERPRINT_BYTES, Fingerprint
from ..network.rpc import Respond, RpcLayer
from ..simulation.stats import Counter, LatencyRecorder
from .upload_plan import UploadPlan

__all__ = ["ClientBatchRequest", "ClientBatchResponse", "WebFrontEnd"]


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
    """The front-end's answer: per-fingerprint verdict columns plus the upload plan.

    ``tiers``, ``service_times`` and ``node_ids`` are parallel to the
    request's ``fingerprints``; :attr:`replies` is the
    :class:`~repro.core.protocol.LookupReply` view, built only when asked for.
    """

    client_id: str
    fingerprints: Sequence[Fingerprint]
    tiers: List[int]
    service_times: Sequence[float]
    node_ids: Sequence[str]
    plan: UploadPlan
    request_id: int = 0

    @property
    def replies(self) -> List[LookupReply]:
        return replies_from_tiers(self.fingerprints, self.tiers, self.service_times, self.node_ids)

    @property
    def duplicates(self) -> int:
        return len(self.tiers) - self.tiers.count(0)

    @property
    def payload_bytes(self) -> int:
        return 32 + 9 * len(self.tiers)


class WebFrontEnd:
    """One web server of the front-end cluster."""

    def __init__(
        self,
        server_id: str,
        cluster: SHHCCluster,
        rpc: Optional[RpcLayer] = None,
        per_request_overhead: float = 30e-6,
    ) -> None:
        self.server_id = server_id
        self.cluster = cluster
        self.rpc = rpc
        self.per_request_overhead = per_request_overhead
        self.counters = Counter()
        self.response_latency = LatencyRecorder(f"{server_id}.response_latency")
        self._request_ids = itertools.count(1)

    # -- service registration ------------------------------------------------------------
    def register(self) -> None:
        """Expose this web server as an RPC service on the fabric."""
        if self.rpc is None:
            raise RuntimeError("register() requires an RpcLayer")
        self.rpc.register(self.server_id, self._handle_async)

    def _response(
        self,
        request: ClientBatchRequest,
        tiers: List[int],
        service_times: Sequence[float],
        node_ids: Sequence[str],
    ) -> ClientBatchResponse:
        return ClientBatchResponse(
            client_id=request.client_id,
            fingerprints=request.fingerprints,
            tiers=tiers,
            service_times=service_times,
            node_ids=node_ids,
            plan=UploadPlan.from_tiers(request.client_id, request.fingerprints, tiers),
            request_id=request.request_id,
        )

    # -- immediate mode --------------------------------------------------------------------
    def handle_batch(self, request: ClientBatchRequest) -> ClientBatchResponse:
        """Process a client batch synchronously (library mode)."""
        self.counters.increment("requests")
        self.counters.increment("fingerprints", len(request.fingerprints))
        return self._response(request, *self.cluster.lookup_batch_columns(request.fingerprints))

    # -- simulated mode ----------------------------------------------------------------------
    def _handle_async(self, request: ClientBatchRequest, respond: Respond) -> None:
        """Fan the batch out to the owning hash nodes and gather the replies."""
        sim = self.rpc.sim
        self.counters.increment("requests")
        self.counters.increment("fingerprints", len(request.fingerprints))
        # Model the web server's own per-request processing before fan-out.
        sim.schedule(self.per_request_overhead, self._dispatch, request, respond, sim.now)

    def _dispatch(self, request: ClientBatchRequest, respond: Respond, started: float) -> None:
        # Route each fingerprint to the first live node of its own replica
        # set so batches keep finding their data while nodes are down, and
        # stamp the client's request id on the sub-batches so node replies
        # can be correlated with this request.  The split runs here, after
        # the per-request overhead and at the same simulated instant as the
        # calls, so it routes by the liveness at dispatch, not at the
        # request's arrival.  Routing goes through the cluster's epoch-keyed
        # replica-set cache (grouping-identical to
        # tests/oracles/batch_routing.py), so every front-end shares one
        # resolution of each digest.
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
                response = self._response(
                    request, *merge_by_position(len(request.fingerprints), groups)
                )
                self.response_latency.record(self.rpc.sim.now - started)
                respond(response, response.payload_bytes)

        for node_name, (node_request, positions) in per_node.items():
            self.rpc.call(self.server_id, node_name, node_request, node_request.payload_bytes,
                          partial(_gather, positions))

    # -- reporting ------------------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "requests": self.counters.get("requests"),
            "fingerprints": self.counters.get("fingerprints"),
            "mean_response_time": self.response_latency.mean if self.response_latency.count else 0.0,
        }
