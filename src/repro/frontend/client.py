"""Backup clients.

Two flavours:

* :class:`BackupClient` -- the *library* client: chunks and fingerprints real
  data, asks a web front-end for an upload plan and ships unique chunks to
  the cloud store (the paper's Client Application, §III.A).
* :class:`SimulatedClient` -- the *load generator* used by the evaluation:
  it replays a fingerprint trace against the simulated deployment in
  closed-loop fashion (a fixed number of outstanding batched requests),
  which is how the paper's two client machines drive Figure 5.  Every
  request is answered (the deployment schedules no faults), so a lane is
  one send and one wait per batch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, List, Optional, Sequence

from ..dedup.chunking import Chunker, FixedSizeChunker
from ..dedup.fingerprint import Fingerprint, fingerprint_data
from ..network.loadbalancer import LoadBalancer
from ..network.rpc import RpcLayer
from ..simulation.engine import Simulator
from ..simulation.stats import LatencyRecorder
from ..storage.object_store import CloudObjectStore
from .upload_plan import UploadPlan
from .webserver import ClientBatchRequest, ClientBatchResponse, WebFrontEnd

__all__ = ["BackupClient", "SimulatedClient", "ClientRunStats"]


class BackupClient:
    """Library-mode client: backs up real byte streams through the front end."""

    def __init__(
        self,
        client_id: str,
        frontend: WebFrontEnd,
        object_store: Optional[CloudObjectStore] = None,
        chunker: Optional[Chunker] = None,
        batch_size: int = 128,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.client_id = client_id
        self.frontend = frontend
        self.object_store = object_store
        self.chunker = chunker if chunker is not None else FixedSizeChunker(8192)
        self.batch_size = batch_size
        self._request_ids = itertools.count(1)
        self.plans: List[UploadPlan] = []

    def backup(self, data: bytes) -> UploadPlan:
        """Back up one object; returns the merged upload plan for it."""
        chunks = list(self.chunker.chunk(data))
        fingerprints = [fingerprint_data(chunk.data) for chunk in chunks]
        chunk_by_digest = {fp.digest: chunk.data for fp, chunk in zip(fingerprints, chunks)}
        merged = UploadPlan(client_id=self.client_id)
        for start in range(0, len(fingerprints), self.batch_size):
            batch = fingerprints[start:start + self.batch_size]
            request = ClientBatchRequest(
                client_id=self.client_id,
                fingerprints=batch,
                request_id=next(self._request_ids),
            )
            response = self.frontend.handle_batch(request)
            merged.extend(response.plan)
            self._apply_plan(response.plan, chunk_by_digest)
        self.plans.append(merged)
        return merged

    def _apply_plan(self, plan: UploadPlan, chunk_by_digest: dict) -> None:
        if self.object_store is None:
            return
        for fingerprint in plan.to_upload:
            data = chunk_by_digest.get(fingerprint.digest)
            if data is not None:
                self.object_store.put(fingerprint.digest, data)
        for fingerprint in plan.already_stored:
            self.object_store.add_reference(fingerprint.digest)


@dataclass
class ClientRunStats:
    """Result of one simulated client replaying its trace."""

    client_id: str
    fingerprints_sent: int = 0
    batches_sent: int = 0
    #: Duplicate verdicts as the server reported them.
    duplicates_found: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    request_latency: LatencyRecorder = field(default_factory=lambda: LatencyRecorder("client.request"))

    @property
    def elapsed(self) -> float:
        return max(0.0, self.finished_at - self.started_at)

    @property
    def throughput(self) -> float:
        """Fingerprints processed per second of simulated time."""
        return self.fingerprints_sent / self.elapsed if self.elapsed > 0 else 0.0


class SimulatedClient:
    """Closed-loop trace-replay client for the simulated deployment.

    Parameters
    ----------
    client_id:
        Endpoint name on the fabric.
    rpc:
        RPC layer of the simulated network.
    load_balancer:
        Assigns each request to a web server (HAProxy in the paper).
    fingerprints:
        The trace this client replays.
    batch_size:
        Fingerprints per request (paper: 1, 128 or 2048).
    window:
        Outstanding requests kept in flight (the paper's clients are
        effectively single-threaded per machine, i.e. window=1).
    """

    def __init__(
        self,
        client_id: str,
        rpc: RpcLayer,
        load_balancer: LoadBalancer,
        fingerprints: Sequence[Fingerprint],
        batch_size: int = 128,
        window: int = 1,
        sim: Optional[Simulator] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.client_id = client_id
        self.rpc = rpc
        self.load_balancer = load_balancer
        self.fingerprints = list(fingerprints)
        self.batch_size = batch_size
        self.window = window
        self.sim = sim if sim is not None else rpc.sim
        self.stats = ClientRunStats(client_id=client_id)
        self._request_ids = itertools.count(1)
        self._running = 0  # lanes still sending

    # -- execution ------------------------------------------------------------------------
    def start(self) -> None:
        """Begin replaying the trace at the current instant.

        The batches are dealt round-robin into ``window`` lanes; each lane
        sends its next batch when the previous one is answered, and
        :attr:`stats` ``finished_at`` is the instant the last lane finishes.
        """
        if self.sim is None:
            raise RuntimeError("SimulatedClient requires a Simulator")
        self.sim.schedule(0.0, self._begin)

    def _batches(self) -> List[List[Fingerprint]]:
        return [
            self.fingerprints[start:start + self.batch_size]
            for start in range(0, len(self.fingerprints), self.batch_size)
        ]

    def _begin(self) -> None:
        sim = self.sim
        self.stats.started_at = sim.now
        batches = self._batches()
        # Batches are dealt round-robin; a lane past the last batch is empty.
        lanes = [iter(batches[lane::self.window])
                 for lane in range(min(self.window, len(batches)))]
        self._running = len(lanes)
        if not lanes:
            self.stats.finished_at = sim.now
        # Each lane starts from its own zero-delay entry, so same-instant
        # work already on the calendar keeps its place.
        for lane in lanes:
            sim.schedule(0.0, self._send_next, lane)

    def _send_next(self, lane: Iterator[List[Fingerprint]]) -> None:
        batch = next(lane, None)
        if batch is None:
            self._running -= 1
            if not self._running:
                self.stats.finished_at = self.sim.now
            return
        backend = self.load_balancer.assign(self.client_id)
        request = ClientBatchRequest(
            client_id=self.client_id,
            fingerprints=batch,
            request_id=next(self._request_ids),
        )
        self.rpc.call(self.client_id, backend, request, request.payload_bytes,
                      partial(self._on_response, lane, backend, self.sim.now))

    def _on_response(self, lane: Iterator[List[Fingerprint]], backend: str, sent_at: float,
                     response: ClientBatchResponse) -> None:
        self.load_balancer.release(backend)
        stats = self.stats
        stats.request_latency.record(self.sim.now - sent_at)
        stats.batches_sent += 1
        stats.fingerprints_sent += len(response.tiers)
        stats.duplicates_found += response.duplicates
        self._send_next(lane)
