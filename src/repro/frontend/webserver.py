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
from typing import List, Optional, Sequence, Tuple

from ..core.cluster import SHHCCluster
from ..core.protocol import BatchLookupReply, LookupReply
from ..dedup.fingerprint import FINGERPRINT_BYTES, Fingerprint
from ..network.rpc import RpcLayer
from ..simulation.engine import Event
from ..simulation.stats import Counter, LatencyRecorder
from .upload_plan import UploadPlan

__all__ = ["ClientBatchRequest", "ClientBatchResponse", "WebFrontEnd", "reassemble_replies"]


def reassemble_replies(
    total: int,
    per_node: Sequence[Tuple[BatchLookupReply, Sequence[int]]],
) -> List[LookupReply]:
    """Merge per-node replies back into the client's original order."""
    merged: List[Optional[LookupReply]] = [None] * total
    for reply, positions in per_node:
        if len(reply.replies) != len(positions):
            raise ValueError("reply length does not match recorded positions")
        for lookup_reply, position in zip(reply.replies, positions):
            merged[position] = lookup_reply
    missing = [i for i, entry in enumerate(merged) if entry is None]
    if missing:
        raise ValueError(f"missing replies for positions {missing[:5]}")
    return [entry for entry in merged if entry is not None]


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
    """The front-end's answer: per-fingerprint verdicts plus the upload plan."""

    client_id: str
    replies: Sequence[LookupReply]
    plan: UploadPlan
    request_id: int = 0

    @property
    def payload_bytes(self) -> int:
        return 32 + 9 * len(self.replies)


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

    # -- immediate mode --------------------------------------------------------------------
    def handle_batch(self, request: ClientBatchRequest) -> ClientBatchResponse:
        """Process a client batch synchronously (library mode)."""
        self.counters.increment("requests")
        self.counters.increment("fingerprints", len(request.fingerprints))
        replies = self.cluster.lookup_batch_replies(list(request.fingerprints))
        plan = UploadPlan.from_replies(request.client_id, replies)
        return ClientBatchResponse(
            client_id=request.client_id,
            replies=replies,
            plan=plan,
            request_id=request.request_id,
        )

    # -- simulated mode ----------------------------------------------------------------------
    def _handle_async(self, request: ClientBatchRequest) -> Event:
        """Fan the batch out to the owning hash nodes and gather the replies."""
        sim = self.rpc.sim
        self.counters.increment("requests")
        self.counters.increment("fingerprints", len(request.fingerprints))
        started = sim.now
        done = sim.event(f"{self.server_id}.response")
        fingerprints = list(request.fingerprints)

        pending = {"count": 0}
        gathered: List[Tuple[BatchLookupReply, Sequence[int]]] = []

        def _on_node_reply(positions: Sequence[int]):
            def _callback(event: Event) -> None:
                gathered.append((event.value, positions))
                pending["count"] -= 1
                if pending["count"] == 0:
                    _finish()

            return _callback

        def _finish() -> None:
            replies = reassemble_replies(len(fingerprints), gathered)
            plan = UploadPlan.from_replies(request.client_id, replies)
            response = ClientBatchResponse(
                client_id=request.client_id,
                replies=replies,
                plan=plan,
                request_id=request.request_id,
            )
            self.response_latency.record(sim.now - started)
            done.succeed((response, response.payload_bytes))

        def _dispatch() -> None:
            # Route each fingerprint to the first live node of its own
            # replica set so batches keep finding their data while nodes are
            # down, and stamp the client's request id on the sub-batches so
            # node replies can be correlated with this request.  The split
            # runs here, after the per-request overhead and at the same
            # simulated instant as the calls, so it routes by the liveness
            # at dispatch, not at the request's arrival.  Routing goes through the cluster's epoch-keyed replica-set
            # cache (grouping-identical to tests/oracles/batch_routing.py), so
            # every front-end shares one resolution of each digest.
            per_node = self.cluster.route_batch(
                fingerprints,
                client_id=request.client_id,
                batch_id=request.request_id if request.request_id else next(self._request_ids),
            )
            pending["count"] = len(per_node)
            for node_name, (node_request, positions) in per_node.items():
                call = self.rpc.call(
                    source=self.server_id,
                    destination=node_name,
                    payload=node_request,
                    payload_bytes=node_request.payload_bytes,
                )
                call.add_callback(_on_node_reply(positions))

        # Model the web server's own per-request processing before fan-out.
        sim.schedule(self.per_request_overhead, _dispatch)
        return done

    # -- reporting ------------------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "requests": self.counters.get("requests"),
            "fingerprints": self.counters.get("fingerprints"),
            "mean_response_time": self.response_latency.mean if self.response_latency.count else 0.0,
        }
