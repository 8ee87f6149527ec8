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

The frame loop is single-threaded by design: the gateway is the only
client, one connection at a time, and requests are answered in arrival
order -- which lets the gateway match replies to requests FIFO, so the
packed batch frames on this hop (see :mod:`~repro.serving.wire`) carry no ids.
"""

from __future__ import annotations

import os
import socket
import sys
from dataclasses import dataclass, field
from time import monotonic, perf_counter_ns
from typing import Any, Dict, Optional

from ..core.config import HashNodeConfig
from ..core.digest_batch import DigestBatch
from ..core.hash_node import HybridHashNode
from ..core.persistence import NodePersistence
from ..storage.bloom import BloomFilter
from ..storage.shm import disown_segment
from ..telemetry import Registry, event
from .wire import (
    WireError,
    decode_payload,
    encode_verdict_frame,
    get_codec,
    recv_payload,
    send_frame,
    verdict_mask,
)

__all__ = ["WorkerSpec", "worker_main"]


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
    codec: str = "json"
    host: str = "127.0.0.1"
    #: Name of a shared-memory segment to back the node's bloom bits with
    #: (``None`` keeps the filter private).  The first spawn creates the
    #: segment; a respawn after ``kill -9`` adopts it, so the bloom bits
    #: survive the crash and recovery only replays the count.  The gateway
    #: owns the segment's lifetime (it unlinks on close).
    shared_bloom_name: Optional[str] = None

    def build_node(self) -> HybridHashNode:
        """Construct the node (warm-starts from ``persistence_dir`` if it exists)."""
        config = HashNodeConfig.from_dict(self.node_config) if self.node_config else HashNodeConfig()
        persistence = None
        if self.persistence_dir is not None:
            persistence = NodePersistence(
                self.persistence_dir, fsync=self.fsync, snapshot_every=self.snapshot_every
            )
        bloom = None
        if self.shared_bloom_name is not None:
            bloom = BloomFilter(
                expected_items=config.bloom_expected_items,
                false_positive_rate=config.bloom_false_positive_rate,
                shared=True,
                shared_name=self.shared_bloom_name,
            )
            if bloom.shared_segment_name is not None:
                # The gateway supervises segment cleanup; keep this worker's
                # atexit sweep from unlinking the bits a respawn will adopt.
                disown_segment(bloom.shared_segment_name)
        return HybridHashNode(
            self.node_id, config=config, persistence=persistence, bloom=bloom
        )


def _serve_batch(node: HybridHashNode, message: Dict[str, Any]) -> bytes:
    """Answer one packed digest batch; the hot path of the whole serving stack.

    The wire blob goes straight into a :class:`DigestBatch` and through the
    node's batch contract: no ``Fingerprint`` or ``LookupReply`` objects
    exist on this path at all -- per-key Python object construction is
    what capped the worker's throughput before.
    """
    blob = message.get("d")
    if type(blob) is not bytes:
        raise WireError("the worker hop carries batches as packed frames only")
    batch = DigestBatch.from_blob(blob, message["s"])
    tiers, _service_times, new_pairs = node.serve_bucket_verdicts(batch)
    return encode_verdict_frame(len(batch), len(new_pairs), verdict_mask(tiers))


def _stats(node: HybridHashNode, registry: Registry) -> Dict[str, Any]:
    """The worker's ``stats`` payload: its registry, refreshed from the node.

    The measured ``serve_batch`` histogram is already in the registry (the
    frame loop feeds it); the node's tier counters, sizes and its
    checkpoint and recovery readings are read here, when somebody asks, so
    the batch path pays for none of them.
    """
    registry.counters.update(node.counters.values)
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


def _serve_connection(conn: socket.socket, node: HybridHashNode, codec,
                      registry: Registry) -> bool:
    """Serve frames on one gateway connection; returns True on shutdown.

    ``serve_batch`` is the worker's one measured series: nanoseconds from a
    batch payload being in hand to its reply frame being built (frame
    decode, node serve, verdict encode) -- one observation per batch, taken
    after the reply has left, and nothing recorded per key.
    """
    observe = registry.histogram("serve_batch").observe
    while True:
        payload = recv_payload(conn)
        if payload is None:
            return False  # gateway went away; go back to accept()
        started = perf_counter_ns()
        message = decode_payload(payload, codec)
        kind = message.get("t")
        if kind == "batch":
            frame = _serve_batch(node, message)
            elapsed = perf_counter_ns() - started
            conn.sendall(frame)
            observe(elapsed)
        elif kind == "stats":
            send_frame(conn, {"t": "stats", "stats": _stats(node, registry)}, codec)
        elif kind == "ping":
            send_frame(conn, {"t": "pong"}, codec)
        elif kind == "shutdown":
            _shutdown(node)
            send_frame(conn, {"t": "reply", "id": message.get("id"), "ok": True}, codec)
            return True
        else:
            raise WireError(f"worker got unknown message type {kind!r}")


def _shutdown(node: HybridHashNode) -> None:
    """Graceful exit: checkpoint the shard so the next start is warm."""
    persistence = node.persistence
    if persistence is not None:
        if persistence.records:
            persistence.take_snapshot(node.bloom, entries=len(node.store))
        persistence.close()
    # Detach from a shared-memory-backed filter while its views can still be
    # released in order (interpreter teardown would close the segment with
    # exported memoryviews alive and warn).  The segment itself survives for
    # the gateway to unlink.
    node.bloom.close_shared()


def worker_main(spec: WorkerSpec, ready_conn) -> None:
    """Process entry point: build the node, report readiness, serve forever.

    ``ready_conn`` is the gateway's end of a ``multiprocessing.Pipe``; the
    worker sends ``{"port", "pid", "entries", "warm", "entered", "built"}``
    (plus ``records``, ``replayed``, ``truncated_bytes`` and ``recovery_ms``
    of a warm start) exactly once, after recovery, and closes it.
    ``entered`` and ``built`` are ``time.monotonic()`` on entry and once the
    node is built -- system-wide on Linux, so the gateway can set them
    against its own stamps to attribute the start-up.  Startup failures are
    reported over the same pipe as ``{"error": ...}`` so the gateway can
    raise a useful message instead of timing out.
    """
    entered = monotonic()
    try:
        node = spec.build_node()
        built = monotonic()
        codec = get_codec(spec.codec)
        listener = socket.create_server((spec.host, 0))
        listener.listen(4)
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

    registry = Registry()
    while True:
        conn, _peer = listener.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            finished = _serve_connection(conn, node, codec, registry)
        except WireError as error:
            event("protocol_error", source=spec.node_id, cause=str(error))
            finished = False
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close races are harmless
                pass
        if finished:
            listener.close()
            return
