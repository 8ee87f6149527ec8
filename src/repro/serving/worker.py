"""Node worker process: one OS process per hash node, shared-nothing.

Each worker owns exactly one :class:`~repro.core.hash_node.HybridHashNode`
(immediate mode) and serves digest batches over a private localhost TCP
socket.  The socket binds an ephemeral port (no collisions across respawns)
which the worker reports back to the gateway through a ``multiprocessing``
pipe once the node is ready to serve -- *after* any warm-start recovery, so
a respawned worker never acknowledges a batch before its shard is restored.

Durability contract: the node's ``serve_bucket_verdicts`` persists new
fingerprints to its fingerprint log *before* returning, so a reply frame on
the wire implies the acknowledged fingerprints survive a process kill.  That
ordering is what the loadgen's post-run audit (zero lost acknowledged
fingerprints after ``kill -9`` + respawn) leans on.

The batch path is :class:`WorkerCore`, which never sees a socket: bytes in,
reply frames out, in arrival order -- so the gateway matches replies FIFO
and the packed batch frames on this hop (see :mod:`~repro.serving.wire`)
carry no ids.  :func:`worker_main` is its shell and serves one connection:
the gateway never reconnects (it replaces a lost worker with a new process),
so a worker exits when its connection ends, whether the gateway shut it
down, dropped it or died.
"""

from __future__ import annotations

import os
import socket
import sys
from dataclasses import dataclass, field
from time import monotonic, perf_counter_ns
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..core.digest_batch import DigestBatch
from ..telemetry import Registry, event
from .wire import (
    JsonCodec,
    WireError,
    decode_payload,
    encode_frame,
    encode_verdict_frame,
    frame_payloads,
    verdict_mask,
)

if TYPE_CHECKING:
    from ..core.hash_node import HybridHashNode

__all__ = ["WorkerCore", "WorkerSpec", "worker_main"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build and serve its node.

    Kept picklable (plain scalars + a config dict) so it crosses the
    ``spawn`` start-method boundary; ``spawn`` is used instead of ``fork``
    because the gateway forks from inside a running asyncio loop, whose
    state must not leak into children.
    """

    node_id: str
    node_config: Dict[str, Any] = field(default_factory=dict)
    #: Per-node persistence directory (``None`` = fully in-memory node).
    persistence_dir: Optional[str] = None
    fsync: bool = False
    snapshot_every: int = 0
    host: str = "127.0.0.1"

    def build_node(self) -> HybridHashNode:
        """Construct the node (warm-starts from ``persistence_dir`` if it exists)."""
        # Imported here: the gateway imports this module and runs none of it.
        from ..core.config import HashNodeConfig
        from ..core.hash_node import HybridHashNode
        from ..core.persistence import NodePersistence

        config = HashNodeConfig.from_dict(self.node_config) if self.node_config else HashNodeConfig()
        persistence = None
        if self.persistence_dir is not None:
            persistence = NodePersistence(
                self.persistence_dir, fsync=self.fsync, snapshot_every=self.snapshot_every
            )
        return HybridHashNode(self.node_id, config=config, persistence=persistence)


class WorkerCore:
    """One node's end of the gateway hop, without a socket: bytes in, frames out.

    :meth:`on_bytes` takes what arrived (``b""`` is EOF) and returns the
    reply frames, one per request frame in arrival order; a trailing
    ``None`` means "close the connection and exit".  A ``shutdown`` frame,
    EOF and any frame that raises end the connection, the last after the
    replies of the frames served before it: their batches are persisted.
    ``serve_batch`` in :attr:`registry` is the worker's one measured
    series: nanoseconds from a batch payload in hand to its reply frame
    built (decode, node serve, verdict encode), one observation per batch.
    """

    def __init__(self, node: HybridHashNode, codec) -> None:
        self.node = node
        self.codec = codec
        self.registry = Registry()
        self._observe = self.registry.histogram("serve_batch").observe
        self._pending = bytearray()  # an unfinished frame's first bytes

    def on_bytes(self, data: bytes) -> List[Optional[bytes]]:
        """Serve the whole frames ``data`` completes; their replies out."""
        replies: List[Optional[bytes]] = []
        try:
            if not data:
                if self._pending:
                    raise WireError("connection closed mid-frame")
                return [None]
            codec = self.codec
            for payload in frame_payloads(self._pending, data):
                started = perf_counter_ns()
                # ``bytes``: the node takes a packed batch's digests as bytes.
                message = decode_payload(bytes(payload), codec)
                kind = message.get("t")
                if kind == "batch":
                    replies.append(self._serve_batch(message))
                    self._observe(perf_counter_ns() - started)
                elif kind == "stats":
                    replies.append(encode_frame({"t": "stats", "stats": self._stats()}, codec))
                elif kind == "ping":
                    replies.append(encode_frame({"t": "pong"}, codec))
                elif kind == "shutdown":
                    self._shutdown()
                    ack = {"t": "reply", "id": message.get("id"), "ok": True}
                    replies += [encode_frame(ack, codec), None]
                    return replies
                else:
                    raise WireError(f"worker got unknown message type {kind!r}")
        except WireError as error:
            event("protocol_error", source=self.node.node_id, cause=str(error))
            replies.append(None)
        except Exception as error:  # noqa: BLE001 - the replies before it are owed too
            from traceback import format_exc

            event("worker_failed", node=self.node.node_id, error=type(error).__name__,
                  traceback=format_exc())
            replies.append(None)
        return replies

    def _serve_batch(self, message: Dict[str, Any]) -> bytes:
        """Answer one packed digest batch; the hot path of the whole serving stack.

        The wire blob goes straight into a :class:`DigestBatch` and through the
        node's batch contract: no ``Fingerprint`` or per-key verdict objects
        exist on this path at all -- per-key Python object construction is
        what capped the worker's throughput before.
        """
        blob = message.get("d")
        if type(blob) is not bytes:
            raise WireError("the worker hop carries batches as packed frames only")
        batch = DigestBatch.from_blob(blob, message["s"])
        tiers, _service_times, new_pairs = self.node.serve_bucket_verdicts(batch)
        return encode_verdict_frame(len(batch), len(new_pairs), verdict_mask(tiers))

    def _stats(self) -> Dict[str, Any]:
        """The worker's ``stats`` payload: its registry, refreshed from the node.

        The measured ``serve_batch`` histogram is already in the registry;
        the node's tier counters, sizes and its checkpoint and recovery
        readings are read here, when somebody asks, so the batch path pays
        for none of them.  ``last_snapshot_ms`` is the last *completed*
        image write; one still in flight is not waited for.
        """
        node, registry = self.node, self.registry
        registry.counters.update(node.counters)
        registry.info.update(node_id=node.node_id)
        gauges = registry.gauges
        gauges.update(entries=len(node.store), ram_cached=len(node.cache))
        persistence = node.persistence
        if persistence is not None:
            gauges.update(
                persisted_records=persistence.records,
                snapshots_taken=persistence.snapshots_taken,
                log_bytes=persistence.container.size,
                last_snapshot_ms=persistence.last_snapshot_ms,
            )
        recovery = node.last_recovery
        if recovery is not None:
            gauges.update(
                recovery_records=recovery.records,
                recovery_replayed=recovery.replayed,
                recovery_truncated_bytes=recovery.truncated_bytes,
                recovery_ms=recovery.wall_seconds * 1e3,
            )
        return registry.snapshot()

    def _shutdown(self) -> None:
        """Graceful exit: checkpoint the shard so the next start is warm."""
        node = self.node
        persistence = node.persistence
        if persistence is not None:
            if persistence.records:
                persistence.take_snapshot(node.bloom, entries=len(node.store))
            persistence.close()


def worker_main(spec: WorkerSpec, ready_conn) -> None:
    """Process entry point: build the node, report readiness, serve the gateway.

    ``ready_conn`` is the gateway's end of a ``multiprocessing.Pipe``; the
    worker sends ``{"port", "pid", "entries", "warm", "entered", "built"}``
    (plus ``records``, ``replayed``, ``truncated_bytes`` and ``recovery_ms``
    of a warm start) exactly once, after recovery, and closes it.
    ``entered`` and ``built`` are ``time.monotonic()`` on entry and once the
    node is built -- system-wide on Linux, so the gateway can set them
    against its own stamps to attribute the start-up.  Startup failures are
    reported over the same pipe as ``{"error": ...}`` so the gateway can
    raise a useful message instead of timing out.  Then it serves one
    connection, and returns when that ends.
    """
    entered = monotonic()
    try:
        node = spec.build_node()
        built = monotonic()
        listener = socket.create_server((spec.host, 0))
    except Exception as error:  # noqa: BLE001 - anything here must reach the gateway
        try:
            ready_conn.send({"error": f"{type(error).__name__}: {error}"})
        finally:
            ready_conn.close()
        sys.exit(1)

    recovery = node.last_recovery
    ready = {
        "port": listener.getsockname()[1],
        "pid": os.getpid(),
        "entries": len(node.store),
        "warm": recovery is not None,
        "entered": entered,
        "built": built,
    }
    if recovery is not None:
        # What the recovery did, for the gateway's respawn line and /stats.
        ready.update(
            records=recovery.records,
            replayed=recovery.replayed,
            truncated_bytes=recovery.truncated_bytes,
            recovery_ms=recovery.wall_seconds * 1e3,
        )
    ready_conn.send(ready)
    ready_conn.close()

    core = WorkerCore(node, JsonCodec)
    with listener:
        conn, _peer = listener.accept()
    with conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Reads land in one buffer (``recv_into``), as the gateway's do:
        # ``recv(1 MiB)`` would allocate past malloc's mmap threshold per read.
        buffer = memoryview(bytearray(256 * 1024))
        while True:
            try:
                received = conn.recv_into(buffer)
            except ConnectionError:  # a reset ends the connection like EOF
                received = 0
            replies = core.on_bytes(buffer[:received])
            frames = b"".join(filter(None, replies))
            try:
                if frames:
                    conn.sendall(frames)
            except ConnectionError:
                break
            if replies and replies[-1] is None:
                break
    # As ``shutdown`` does (idempotent): the log is closed here, not left
    # to teardown (an image write's error is raised, not lost).
    if node.persistence is not None:
        node.persistence.close()
