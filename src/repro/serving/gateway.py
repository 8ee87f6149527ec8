"""The serving front door: an asyncio TCP gateway over per-node worker processes.

The gateway owns ``num_nodes`` OS processes (one
:class:`~repro.serving.worker.WorkerSpec` each, shared-nothing), routes each
digest of an incoming batch to its owning worker with the same contiguous
range sharding as :class:`~repro.core.partition.RangePartitioner`, and
merges the per-worker verdict masks back into one reply in the client's
original digest order.

Flow control is explicit and two-level, mirroring the simulated frontend's
admission queue:

* **Per-worker bounded queues** -- a batch is admitted only if *every*
  worker it touches has queue room (checked and enqueued without an
  intervening ``await``, so admission is atomic under asyncio).
* **Global max in-flight** -- a cap on admitted-but-unanswered batches.

A batch that fails admission is *shed* with an ``OVERLOADED`` reply
(``retry: true``) rather than queued without bound: under overload the
service degrades by rejecting, never by growing latency without limit.

Workers are supervised: a worker that dies (e.g. ``kill -9``, or the
``kill_worker`` admin frame used for fault injection) is respawned and
warm-starts from its persistence directory; batches in flight on the dead
worker are answered ``UNAVAILABLE`` (``retry: true``).  Because workers
persist new fingerprints *before* replying, an acknowledged batch can never
be lost to a crash -- the loadgen's audit leans on exactly this.

The listening socket speaks two protocols, sniffed from the first four
bytes: length-prefixed frames (the real protocol) and ``GET `` (minimal
HTTP ``/stats`` and ``/metrics`` endpoints for humans, CI scripts and
Prometheus).

Everything either endpoint reports comes out of :mod:`repro.telemetry`
registries: the gateway's own, and each worker's, fetched with a ``stats``
frame over the same FIFO hop the batches use and merged -- exactly, they
are integer histograms over shared bounds -- into the fleet view.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import socket
import struct
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Deque, Dict, List, Optional, Union

from ..core.partition import RangePartitioner
from ..storage.packing import DIGEST_BYTES, split_digests
from ..storage.shm import unlink_segment
from ..telemetry import Registry, event, render_prometheus
from .wire import (
    MAX_FRAME_BYTES,
    WireError,
    encode_batch_frame,
    encode_frame,
    get_codec,
    mask_bits,
    read_frame,
)
from .worker import WorkerSpec, worker_main

__all__ = ["ServeConfig", "ServiceGateway", "ServingError"]


class ServingError(Exception):
    """Service could not start or operate (e.g. port already in use)."""


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one gateway + worker fleet."""

    host: str = "127.0.0.1"
    #: TCP port for clients (0 = ephemeral; read ``gateway.port`` after start).
    port: int = 7411
    num_nodes: int = 4
    #: ``HashNodeConfig`` overrides passed to every worker (dict form).
    node_config: Dict[str, Any] = field(default_factory=dict)
    #: Root persistence directory (one subdirectory per node); ``None`` runs
    #: the nodes fully in memory (no durability, no warm restarts).
    data_dir: Optional[str] = None
    fsync: bool = False
    #: Log records between automatic bloom checkpoints (0 = off).
    snapshot_every: int = 100_000
    #: Max queued batches per worker before admission sheds.
    max_queue: int = 64
    #: Max admitted-but-unanswered batches across the whole gateway.
    max_inflight: int = 512
    #: Seconds between console stats lines (0 disables the reporter).
    report_interval: float = 0.0
    codec: str = "json"
    #: Seconds to wait for a worker to report readiness after spawn.
    spawn_timeout: float = 60.0
    #: Seconds close() waits for in-flight batches before forcing shutdown.
    drain_timeout: float = 10.0
    #: Back each worker's bloom bits with a named shared-memory segment.
    #: The segment outlives the worker process, so a respawn after a crash
    #: adopts the filter bits instead of replaying them; the gateway unlinks
    #: the segments when it closes.  Falls back to private filters where
    #: shared memory is unavailable.
    shared_bloom: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.num_nodes <= 254:
            raise ValueError("num_nodes must be in 1..254 (routing names an owner in one byte)")
        if self.max_queue < 1 or self.max_inflight < 1:
            raise ValueError("max_queue and max_inflight must be >= 1")

    def node_id(self, index: int) -> str:
        return f"node{index}"

    def shared_bloom_name(self, index: int) -> Optional[str]:
        """Segment name for one worker's bloom bits (``None`` when off).

        Scoped by the gateway's pid: unique across concurrent gateways on
        one host, stable across that gateway's worker respawns.
        """
        if not self.shared_bloom:
            return None
        return f"repro-{os.getpid()}-{self.node_id(index)}-bloom"

    def worker_spec(self, index: int) -> WorkerSpec:
        directory = None
        if self.data_dir is not None:
            directory = os.path.join(self.data_dir, self.node_id(index))
        return WorkerSpec(
            node_id=self.node_id(index),
            node_config=dict(self.node_config),
            persistence_dir=directory,
            fsync=self.fsync,
            snapshot_every=self.snapshot_every,
            codec=self.codec,
            host=self.host,
            shared_bloom_name=self.shared_bloom_name(index),
        )


class _Worker:
    """Gateway-side handle for one node worker process."""

    __slots__ = (
        "index", "node_id", "process", "pipe", "port", "pid", "reader", "writer",
        "queue", "pending", "ready", "restarts", "sent", "replies", "warm_starts",
        "recovery", "report", "start", "supervisor",
    )

    def __init__(self, index: int, node_id: str, max_queue: int) -> None:
        self.index = index
        self.node_id = node_id
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.pipe = None
        self.port: Optional[int] = None
        self.pid: Optional[int] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        #: Admitted frames waiting to be written: ``(frame_bytes, future)``.
        self.queue: asyncio.Queue = asyncio.Queue(max_queue)
        #: Futures for frames written but not yet answered (FIFO: the worker
        #: answers frames strictly in arrival order).
        self.pending: Deque[asyncio.Future] = deque()
        #: Set while the worker is connected and accepting frames.
        self.ready = asyncio.Event()
        self.restarts = 0
        self.sent = 0
        self.replies = 0
        self.warm_starts = 0
        #: What the latest warm start replayed (the worker's ready report).
        self.recovery: Optional[Dict[str, Any]] = None
        #: The latest ready report, plus the gateway's ``launched`` stamp.
        self.report: Dict[str, Any] = {}
        #: Where the latest spawn's time went (see ``_worker_ready``).
        self.start: Optional[Dict[str, float]] = None
        self.supervisor: Optional[asyncio.Task] = None

    def fail_outstanding(self, reply: Dict[str, Any]) -> int:
        """Answer every queued/in-flight frame with ``reply`` (worker died)."""
        failed = 0
        while self.pending:
            future = self.pending.popleft()
            if not future.done():
                future.set_result(dict(reply))
                failed += 1
        while True:
            try:
                _frame, future = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if future is not None and not future.done():
                future.set_result(dict(reply))
                failed += 1
        return failed


def _no_nagle(writer: asyncio.StreamWriter) -> None:
    """Batch frames are latency-sensitive and self-contained; disable Nagle."""
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - not a TCP socket
            pass


_UNAVAILABLE = {"t": "reply", "ok": False, "err": "UNAVAILABLE", "retry": True}
_OVERLOADED = {"t": "reply", "ok": False, "err": "OVERLOADED", "retry": True}
_SHUTTING_DOWN = {"t": "reply", "ok": False, "err": "SHUTTING_DOWN", "retry": False}

#: How long a ``stats`` request waits for one worker's snapshot (it queues
#: behind that worker's batches); past it the worker is reported ``null``.
_STATS_WAIT_S = 2.0


class ServiceGateway:
    """Accepts client batches, shards them to workers, merges the verdicts."""

    def __init__(self, config: ServeConfig, verbose: bool = False) -> None:
        self.config = config
        self.verbose = verbose
        self.codec = get_codec(config.codec)
        self._mp = multiprocessing.get_context("spawn")
        # Same contiguous range sharding as the in-process cluster; its
        # ``owner_indexes`` names each digest's worker in one byte, and
        # ``_selects[i]`` maps those bytes to "is worker i's" for ``compress``.
        self._partitioner = RangePartitioner([config.node_id(i) for i in range(config.num_nodes)])
        self._selects = [bytes(o == i for o in range(256)) for i in range(config.num_nodes)]
        self.workers = [
            _Worker(i, config.node_id(i), config.max_queue)
            for i in range(config.num_nodes)
        ]
        self._server: Optional[asyncio.base_events.Server] = None
        self._reporter: Optional[asyncio.Task] = None
        self._closing = False
        self.port: Optional[int] = None
        self.started_at = 0.0
        #: Admitted-but-unanswered batches: admission state, reported as a gauge.
        self.inflight = 0
        #: The gateway's own metrics (event-loop writes only); ``/stats`` and
        #: ``/metrics`` are views of this and of the workers' registries.
        self.telemetry = Registry(counters=(
            "acked_batches", "acked_fingerprints", "new_fingerprints",
            "duplicate_fingerprints", "shed_batches", "shed_fingerprints",
            "unavailable_batches", "protocol_errors",
        ))
        #: Admission to merged reply, per acknowledged batch (nanoseconds).
        self.batch_latency = self.telemetry.histogram("batch_latency")
        self._stats_frame = encode_frame({"t": "stats"}, self.codec)
        self._window_acked = 0  # fingerprints acked since the last report line

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Spawn the fleet, wait for every shard to recover, open the door."""
        self.started_at = time.perf_counter()
        await asyncio.gather(*(self._spawn(worker) for worker in self.workers))
        for worker in self.workers:
            worker.supervisor = asyncio.ensure_future(self._supervise(worker))
        # Workers are connected before the listener exists, so the first
        # client batch never races worker startup.
        for worker in self.workers:
            await worker.ready.wait()
        try:
            self._server = await asyncio.start_server(
                self._handle_client, self.config.host, self.config.port
            )
        except OSError as error:
            await self._abort_workers()
            raise ServingError(
                f"cannot listen on {self.config.host}:{self.config.port}: {error}"
            ) from error
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.report_interval > 0:
            self._reporter = asyncio.ensure_future(self._report_loop())
        self._event("serving", host=self.config.host, port=self.port,
                    nodes=self.config.num_nodes, codec=self.codec.name)

    async def close(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, stop workers."""
        if self._closing:
            return
        self._closing = True
        if self._reporter is not None:
            self._reporter.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.perf_counter() + self.config.drain_timeout
        while self.inflight and time.perf_counter() < deadline:
            await asyncio.sleep(0.02)
        # Ask every live worker to snapshot and exit; its supervisor sees a
        # clean EOF afterwards and returns instead of respawning.
        shutdowns = []
        for worker in self.workers:
            if worker.ready.is_set():
                future: asyncio.Future = asyncio.get_event_loop().create_future()
                frame = encode_frame({"t": "shutdown"}, self.codec)
                try:
                    worker.queue.put_nowait((frame, future))
                    shutdowns.append(future)
                except asyncio.QueueFull:  # pragma: no cover - drained above
                    pass
        if shutdowns:
            await asyncio.wait(shutdowns, timeout=self.config.drain_timeout)
        await self._abort_workers()
        self._event("drained")

    async def _abort_workers(self) -> None:
        self._closing = True
        for worker in self.workers:
            if worker.supervisor is not None:
                worker.supervisor.cancel()
            if worker.writer is not None:
                worker.writer.close()
        loop = asyncio.get_event_loop()
        for worker in self.workers:
            process = worker.process
            if process is not None and process.is_alive():
                await loop.run_in_executor(None, process.join, 2.0)
                if process.is_alive():
                    process.kill()
                    await loop.run_in_executor(None, process.join, 2.0)
        self._cleanup_shared_segments()

    def _cleanup_shared_segments(self) -> None:
        """Unlink the workers' shared bloom segments (crash-tolerant).

        Workers disown their segments so respawns can adopt them; once the
        fleet is gone the gateway is the sole owner and must remove them,
        including segments left behind by workers that died to ``kill -9``.
        """
        if not self.config.shared_bloom:
            return
        for worker in self.workers:
            name = self.config.shared_bloom_name(worker.index)
            if name is not None:
                unlink_segment(name)

    # ------------------------------------------------------------- worker fleet
    async def _spawn(self, worker: _Worker) -> None:
        """Start the worker process and wait for its ready report."""
        spec = self.config.worker_spec(worker.index)
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=worker_main, args=(spec, child_conn), daemon=True
        )
        loop = asyncio.get_event_loop()
        launched = time.monotonic()
        await loop.run_in_executor(None, process.start)
        child_conn.close()

        def _wait_ready() -> Dict[str, Any]:
            if parent_conn.poll(self.config.spawn_timeout):
                return parent_conn.recv()
            raise TimeoutError(
                f"worker {spec.node_id} did not report ready within "
                f"{self.config.spawn_timeout:.0f}s"
            )

        try:
            ready = await loop.run_in_executor(None, _wait_ready)
        except (TimeoutError, EOFError) as error:
            process.kill()
            raise ServingError(f"worker {spec.node_id} failed to start: {error}") from error
        finally:
            parent_conn.close()
        if "error" in ready:
            raise ServingError(f"worker {spec.node_id} failed to start: {ready['error']}")
        worker.process = process
        worker.port = int(ready["port"])
        worker.pid = int(ready["pid"])
        worker.report = dict(ready, launched=launched)

    def _worker_ready(self, worker: _Worker, connected: float) -> None:
        """A fresh worker is connected: record what its start did, and say so.

        ``start`` splits the spawn, ``process.start`` to connected, by
        ``time.monotonic()`` stamps taken in both processes: the interpreter
        and its imports (``start_ms``), building the node -- opening the
        store plus any recovery (``build_ms``) -- and binding, the ready
        report and the gateway's connect (``ready_ms``); they sum to
        ``spawn_ms``.
        """
        report = worker.report
        warm = bool(report.get("warm"))
        if warm:
            worker.warm_starts += 1
            worker.recovery = {
                key: report.get(key, 0)
                for key in ("records", "replayed", "truncated_bytes", "recovery_ms")
            }
        launched, entered, built = report["launched"], report["entered"], report["built"]
        worker.start = {
            "start_ms": (entered - launched) * 1e3,
            "build_ms": (built - entered) * 1e3,
            "ready_ms": (connected - built) * 1e3,
            "spawn_ms": (connected - launched) * 1e3,
        }
        self._event("worker_ready", node=worker.node_id, pid=worker.pid, warm=warm,
                    entries=report.get("entries", 0), **(worker.recovery if warm else {}),
                    **worker.start)

    async def _supervise(self, worker: _Worker) -> None:
        """Connect, pump frames, and respawn the worker for as long as we run."""
        while not self._closing:
            try:
                reader, writer = await asyncio.open_connection(
                    self.config.host, worker.port
                )
            except OSError:
                await asyncio.sleep(0.05)
                continue
            self._worker_ready(worker, time.monotonic())
            _no_nagle(writer)
            worker.reader, worker.writer = reader, writer
            worker.ready.set()
            clean = await self._pump(worker)
            worker.ready.clear()
            worker.reader = worker.writer = None
            try:
                writer.close()
            except Exception:  # pragma: no cover - close races are harmless
                pass
            if clean or self._closing:
                return
            # The worker died under us: answer its outstanding batches as
            # retryable and bring a fresh process up on the same shard.
            failed = worker.fail_outstanding(_UNAVAILABLE)
            worker.restarts += 1
            self._event("worker_died", node=worker.node_id, pid=worker.pid,
                        failed_frames=failed, restarts=worker.restarts)
            try:
                await self._spawn(worker)
            except ServingError as error:  # pragma: no cover - respawn failure
                self._event("respawn_failed", node=worker.node_id, error=str(error))
                await asyncio.sleep(0.5)

    async def _pump(self, worker: _Worker) -> bool:
        """Move frames queue -> socket and replies socket -> futures.

        Returns ``True`` on a clean shutdown handshake, ``False`` when the
        worker (or its connection) died.
        """
        sender = asyncio.ensure_future(self._send_loop(worker))
        try:
            while True:
                try:
                    message = await read_frame(worker.reader, self.codec)
                except (WireError, OSError):
                    return False
                if message is None:
                    # EOF: clean only if we asked the worker to shut down
                    # (its reply arrives, FIFO, before the socket closes).
                    return self._closing and not worker.pending
                if worker.pending:
                    future = worker.pending.popleft()
                    if message.get("t") == "reply":
                        worker.replies += 1
                    if not future.done():
                        future.set_result(message)
                else:  # pragma: no cover - protocol violation
                    self._protocol_error(f"{worker.node_id} answered a frame nobody sent")
        finally:
            sender.cancel()

    async def _send_loop(self, worker: _Worker) -> None:
        writer = worker.writer
        while True:
            frame, future = await worker.queue.get()
            try:
                writer.write(frame)
                # Append before the drain await: the receiver matches replies
                # FIFO and must find this future even if the worker answers
                # while the drain is still pending.
                if future is not None:
                    worker.pending.append(future)
                await writer.drain()
            except (ConnectionError, OSError):
                return

    # ------------------------------------------------------------- client side
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        _no_nagle(writer)
        # readexactly, not read: the first length prefix may arrive split
        # across TCP segments, and read(4) returns as soon as one byte has.
        try:
            sniff = await reader.readexactly(4)
        except asyncio.IncompleteReadError as error:
            if error.partial:
                self._protocol_error("connection closed inside the first header")
            writer.close()
            return
        except (ConnectionError, OSError):
            writer.close()
            return
        if sniff == b"GET ":
            await self._serve_http(reader, writer)
            return
        # Frame protocol: the 4 sniffed bytes are the first length prefix.
        try:
            await self._serve_frames(sniff, reader, writer)
        except (WireError, ConnectionError, OSError) as error:
            self._protocol_error(str(error) or type(error).__name__)
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover
                pass

    async def _serve_frames(self, first_header: bytes, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        codec = self.codec
        header: Optional[bytes] = first_header
        write_lock = asyncio.Lock()
        tasks: set = set()

        async def _answer_batch(message: Dict[str, Any]) -> None:
            # Batches run concurrently so a pipelining client actually gets
            # a pipeline; replies are id-matched, so completion order is
            # free to differ from arrival order.
            try:
                reply = await self._handle_batch(message)
            except Exception as error:  # noqa: BLE001 - every batch frame gets one reply
                # Not gated by ``verbose``: a crash on the batch path is never routine.
                event("batch_failed", id=message.get("id"), error=type(error).__name__,
                      traceback=traceback.format_exc())
                self.telemetry.counters["protocol_errors"] += 1
                reply = {"t": "reply", "id": message.get("id"), "ok": False,
                         "err": f"internal error: {type(error).__name__}", "retry": False}
            frame = encode_frame(reply, codec)
            async with write_lock:
                writer.write(frame)
                await writer.drain()

        try:
            while True:
                if header is None:
                    try:
                        header = await reader.readexactly(4)
                    except asyncio.IncompleteReadError as error:
                        if not error.partial:
                            return  # clean EOF between frames
                        raise WireError("connection closed mid-frame") from None
                length = int.from_bytes(header, "big")
                header = None
                if length > MAX_FRAME_BYTES:
                    raise WireError("oversized frame")
                try:
                    payload = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    raise WireError("connection closed mid-frame") from None
                message = codec.decode(payload)
                kind = message.get("t")
                if kind == "batch":
                    task = asyncio.ensure_future(_answer_batch(message))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                    continue
                if kind == "stats":
                    reply = {"t": "stats", "id": message.get("id"),
                             "stats": await self.fleet_stats()}
                elif kind == "ping":
                    reply = {"t": "pong", "id": message.get("id")}
                elif kind == "kill_worker":
                    reply = self._handle_kill(message)
                else:
                    reply = {"t": "reply", "id": message.get("id"), "ok": False,
                             "err": f"unknown message type {kind!r}", "retry": False}
                frame = encode_frame(reply, codec)
                async with write_lock:
                    writer.write(frame)
                    await writer.drain()
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    def _split(self, blob: bytes, owners: bytes,
               sizes: Union[int, List[int]]) -> Dict[int, bytes]:
        """One packed batch frame per touched worker, digest order kept."""
        digests = split_digests(blob)
        frames = {}
        for index in sorted(set(owners)):
            mine = owners.translate(self._selects[index])
            frames[index] = encode_batch_frame(
                b"".join(compress(digests, mine)),
                sizes if isinstance(sizes, int) else tuple(compress(sizes, mine)),
            )
        return frames

    def _refusal(self, frames: Dict[int, bytes]) -> Optional[Dict[str, Any]]:
        """The admission rule that refuses a batch right now (``None`` admits it).

        The global in-flight cap, then every touched worker up with queue
        room; what comes back names the rule for the ``shed`` event.
        """
        if self.inflight >= self.config.max_inflight:
            return {"rule": "max_inflight", "inflight": self.inflight}
        for index in frames:
            worker = self.workers[index]
            if not worker.ready.is_set():
                return {"rule": "worker_down", "worker": worker.node_id}
            if worker.queue.full():
                return {"rule": "max_queue", "worker": worker.node_id}
        return None

    def _protocol_error(self, cause: str) -> None:
        self.telemetry.counters["protocol_errors"] += 1
        self._event("protocol_error", source="gateway", cause=cause)

    def _malformed(self, message_id: Any, what: str) -> Dict[str, Any]:
        self._protocol_error(f"malformed {what}")
        return {"t": "reply", "id": message_id, "ok": False,
                "err": f"malformed {what}", "retry": False}

    async def _handle_batch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        started = time.perf_counter_ns()
        message_id = message.get("id")
        # Client text stops here: the hex is decoded (and thereby validated)
        # once, and only bytes travel on to the workers.
        blob_hex = message.get("d")
        try:
            blob = bytes.fromhex(blob_hex)
        except (TypeError, ValueError):
            return self._malformed(message_id, "digest blob")
        # fromhex skips whitespace, hence the length comparison.
        if not blob or len(blob_hex) != 2 * len(blob) or len(blob) % DIGEST_BYTES:
            return self._malformed(message_id, "digest blob")
        count = len(blob) // DIGEST_BYTES
        sizes = message.get("s", 0)
        if not (isinstance(sizes, int) or isinstance(sizes, list) and len(sizes) == count):
            return self._malformed(message_id, "chunk sizes")
        if self._closing:
            return {**_SHUTTING_DOWN, "id": message_id}
        owners = self._partitioner.owner_indexes(blob)
        try:
            frames = self._split(blob, owners, sizes)
        except struct.error:  # a size that is not an integer in u32
            return self._malformed(message_id, "chunk sizes")

        # -- admission: every touched worker must be up with queue room, and
        # the global in-flight cap must have space.  No await between the
        # checks and the put_nowait calls, so admission is atomic.
        counters = self.telemetry.counters
        refusal = self._refusal(frames)
        if refusal is not None:
            counters["shed_batches"] += 1
            counters["shed_fingerprints"] += count
            self._event("shed", id=message_id, fingerprints=count, **refusal)
            return {**_OVERLOADED, "id": message_id}

        loop = asyncio.get_event_loop()
        submitted = []
        for index, frame in frames.items():
            future = loop.create_future()
            worker = self.workers[index]
            worker.queue.put_nowait((frame, future))
            worker.sent += 1
            submitted.append(future)
        self.inflight += 1
        try:
            replies = await asyncio.gather(*submitted)
        finally:
            self.inflight -= 1

        verdicts = {}
        new_entries = 0
        for index, sub_reply in zip(frames, replies):
            if not sub_reply.get("ok"):
                # A worker died mid-batch.  Nothing was acknowledged, so the
                # client may retry the whole batch against the respawned shard.
                counters["unavailable_batches"] += 1
                return {**sub_reply, "id": message_id}
            if sub_reply.get("n") != owners.count(index):
                self._protocol_error(
                    f"{self.workers[index].node_id} answered {sub_reply.get('n')} verdicts "
                    f"for {owners.count(index)} digests")
                counters["unavailable_batches"] += 1
                return {**_UNAVAILABLE, "id": message_id}
            new_entries += sub_reply["new"]
            verdicts[index] = iter(mask_bits(sub_reply["v"], sub_reply["n"]))
        # Re-interleave: digest i's verdict is the next unread bit of its
        # owner's sub-mask (sub-batches kept digest order).
        bits = "".join(map(next, map(verdicts.__getitem__, owners)))
        counters["acked_batches"] += 1
        counters["acked_fingerprints"] += count
        self._window_acked += count
        counters["new_fingerprints"] += new_entries
        counters["duplicate_fingerprints"] += count - new_entries
        self.batch_latency.observe(time.perf_counter_ns() - started)
        return {"t": "reply", "id": message_id, "ok": True,
                "v": format(int(bits[::-1], 2), "x"), "n": count, "new": new_entries}

    def _handle_kill(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Admin fault injection: SIGKILL one worker (it will be respawned)."""
        node = message.get("node")
        for worker in self.workers:
            if worker.node_id == node or worker.index == node:
                if worker.process is not None and worker.process.is_alive():
                    worker.process.kill()
                    self._event("worker_killed", node=worker.node_id, pid=worker.pid)
                    return {"t": "reply", "id": message.get("id"), "ok": True,
                            "node": worker.node_id, "pid": worker.pid}
                return {"t": "reply", "id": message.get("id"), "ok": False,
                        "err": f"worker {node!r} is not running", "retry": False}
        return {"t": "reply", "id": message.get("id"), "ok": False,
                "err": f"no such worker {node!r}", "retry": False}

    # ------------------------------------------------------------- observability
    def stats(self) -> Dict[str, Any]:
        """The gateway's own view: its registry, flattened, plus one row per worker.

        Synchronous and local -- what the workers measure is
        :meth:`fleet_stats`'s to fetch.
        """
        elapsed = max(time.perf_counter() - self.started_at, 1e-9)
        counters = self.telemetry.counters
        self.telemetry.gauges.update(uptime_s=elapsed, inflight=self.inflight)
        offered = counters["acked_fingerprints"] + counters["shed_fingerprints"]
        return {
            "uptime_s": elapsed,
            "nodes": self.config.num_nodes,
            **counters,
            "throughput_fps": counters["acked_fingerprints"] / elapsed,
            "inflight": self.inflight,
            "shed_rate": counters["shed_fingerprints"] / offered if offered else 0.0,
            "batch_latency_us": self.batch_latency.summary_us(),
            "workers": [
                {
                    "node_id": worker.node_id,
                    "pid": worker.pid,
                    "port": worker.port,
                    "up": worker.ready.is_set(),
                    "queue_depth": worker.queue.qsize(),
                    "pending": len(worker.pending),
                    "sent": worker.sent,
                    "replies": worker.replies,
                    "restarts": worker.restarts,
                    "warm_starts": worker.warm_starts,
                    "recovery": worker.recovery,
                    "start": worker.start,
                }
                for worker in self.workers
            ],
        }

    async def _worker_snapshot(self, worker: _Worker) -> Optional[Dict[str, Any]]:
        """One worker's registry snapshot, asked for over the FIFO batch hop.

        ``None`` for a worker that is down, dies before answering, or does
        not answer within ``_STATS_WAIT_S`` (the request queues behind its
        batches).  A request that gave up leaves a cancelled future in
        ``pending``, which ``_pump`` matches to the late answer and drops.
        """
        if not worker.ready.is_set():
            return None
        future: asyncio.Future = asyncio.get_event_loop().create_future()

        async def _ask() -> Dict[str, Any]:
            await worker.queue.put((self._stats_frame, future))
            return await future

        try:
            reply = await asyncio.wait_for(_ask(), timeout=_STATS_WAIT_S)
        except asyncio.TimeoutError:
            return None
        return reply.get("stats")

    async def fleet_stats(self) -> Dict[str, Any]:
        """:meth:`stats` plus what the workers measured, and their exact merge.

        ``workers[i]["telemetry"]`` is worker *i*'s registry snapshot
        (``null`` when it could not be had) and ``fleet`` is the merge of
        the ones that answered: counters, gauges and histogram buckets
        added index-wise.  A respawned worker starts from zero, so a fleet
        counter can fall -- ``workers[i]["restarts"]`` says when one did.
        """
        snapshots = await asyncio.gather(*map(self._worker_snapshot, self.workers))
        stats = self.stats()
        fleet = Registry()
        for row, snapshot in zip(stats["workers"], snapshots):
            row["telemetry"] = snapshot
            if snapshot is not None:
                fleet.merge(snapshot)
        stats["fleet"] = fleet.snapshot()
        return stats

    def _render_metrics(self, stats: Dict[str, Any]) -> str:
        """``fleet_stats()`` as Prometheus text: gateway, per-worker, fleet."""
        rows = stats["workers"]
        handles = [
            ({"node": row["node_id"]}, {
                "counters": {key: row[key] for key in ("sent", "replies", "restarts", "warm_starts")},
                "gauges": {"up": int(row["up"]), "queue_depth": row["queue_depth"],
                           "pending": row["pending"]},
                "info": {}, "histograms": {},
            })
            for row in rows
        ]
        measured = [({"node": row["node_id"]}, row["telemetry"])
                    for row in rows if row["telemetry"] is not None]
        return (
            self.telemetry.render_prometheus("shhc_gateway")
            + render_prometheus("shhc_gateway_worker", handles)
            + render_prometheus("shhc_worker", measured)
            + render_prometheus("shhc_fleet", [({}, stats["fleet"])])
        )

    async def _serve_http(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """Answer one ``GET /stats`` or ``GET /metrics`` (anything else 404s) and close."""
        try:
            request = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5.0)
        except asyncio.LimitOverrunError:
            # More than the stream limit (64 KiB) with no end of headers:
            # not HTTP.  Counted like any other garbage on the port.
            self._protocol_error("oversized HTTP request head")
            writer.close()
            return
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, OSError):
            writer.close()
            return
        # The sniff already consumed the leading ``GET ``, so the request
        # line starts at the path: ``/stats HTTP/1.1``.
        path = request.split(b"\r\n", 1)[0].split(b" ")[0] or b"/"
        status, content_type = b"200 OK", b"application/json"
        if path in (b"/stats", b"/"):
            body = json.dumps(await self.fleet_stats(), indent=2).encode("utf-8")
        elif path == b"/metrics":
            body = self._render_metrics(await self.fleet_stats()).encode("utf-8")
            content_type = b"text/plain; version=0.0.4; charset=utf-8"
        else:
            body = b'{"error": "not found"}'
            status = b"404 Not Found"
        writer.write(
            b"HTTP/1.1 " + status + b"\r\n"
            b"Content-Type: " + content_type + b"\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"Connection: close\r\n\r\n" + body
        )
        try:
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
        writer.close()

    async def _report_loop(self) -> None:
        interval = self.config.report_interval
        while True:
            await asyncio.sleep(interval)
            window = self._window_acked
            self._window_acked = 0
            stats = self.stats()
            latency = stats["batch_latency_us"]
            self._event(
                "report", uptime_s=round(stats["uptime_s"], 1),
                acked_fingerprints=stats["acked_fingerprints"],
                fps=round(window / interval), p50_us=round(latency["p50"]),
                p99_us=round(latency["p99"]), inflight=stats["inflight"],
                shed_batches=stats["shed_batches"],
                restarts=sum(w["restarts"] for w in stats["workers"]),
            )

    def _event(self, name: str, **fields: Any) -> None:
        """A routine lifecycle event: one JSON line on stderr under ``verbose``."""
        if self.verbose:
            event(name, **fields)

    # ------------------------------------------------------------- convenience
    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI wraps this with signal handling)."""
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
