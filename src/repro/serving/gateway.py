"""The serving front door: an asyncio TCP gateway over per-node worker processes.

The gateway owns ``num_nodes`` OS processes (one
:class:`~repro.serving.worker.WorkerSpec` each, shared-nothing), routes each
digest of an incoming batch to its owning worker with the same contiguous
range sharding as :class:`~repro.core.partition.RangePartitioner`, and
merges the per-worker verdict masks back into one reply in the client's
original digest order.  That batch path is
:class:`~repro.serving.gateway_core.GatewayCore`, which never sees a socket;
this module is its shell: one protocol per client and per worker connection
feeds the core what lands in the read buffer and writes what it returns, one
``write`` per connection per callback.  No batch spawns a task or a future.

Flow control is two-level: a batch is admitted only while fewer than
``max_inflight`` batches are unanswered and every worker it touches has
fewer than ``max_queue`` frames outstanding (written, not yet answered).
Otherwise it is *shed* with ``OVERLOADED`` (``retry: true``): under
overload the service degrades by rejecting, never by growing latency
without limit.  The simulated frontend (:mod:`repro.frontend.webserver`)
has no counterpart: it admits every batch and sheds none.  A client that
stops reading its replies stops being read (its ``pause_writing`` pauses
reading), so it can neither grow the gateway's memory nor starve other
clients.

Workers are supervised: a worker that dies (e.g. ``kill -9``, or the
``kill_worker`` admin frame used for fault injection) or whose connection
is dropped is reaped, then respawned, and warm-starts from its persistence
directory; batches in flight on it are answered ``UNAVAILABLE``
(``retry: true``).  Because workers persist new fingerprints *before*
replying, an acknowledged batch can never be lost to a crash -- the
loadgen's audit leans on exactly this.

The listening socket speaks two protocols, sniffed from the first four
bytes: length-prefixed frames and ``GET `` (minimal HTTP ``/stats`` and
``/metrics`` for humans, CI scripts and Prometheus).  Both report the
gateway's :mod:`repro.telemetry` registry and each worker's (fetched over
the batches' FIFO hop), merged exactly into the fleet view.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..telemetry import Registry, render_prometheus
from .gateway_core import GatewayCore, Output, WorkerLink
from .wire import encode_frame, get_codec
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
    #: Max frames outstanding (written, not yet answered) per worker before
    #: admission sheds.
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
    #: Back each worker's bloom bits with a named shared-memory segment that
    #: outlives the process: a respawn adopts the bits instead of replaying
    #: them, and the gateway unlinks the segments on close.  Falls back to
    #: private filters where shared memory is unavailable.
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
            node_id=self.node_id(index), node_config=dict(self.node_config),
            persistence_dir=directory, fsync=self.fsync, snapshot_every=self.snapshot_every,
            codec=self.codec, host=self.host, shared_bloom_name=self.shared_bloom_name(index))


class _Worker(WorkerLink):
    """Gateway-side handle for one node worker process."""

    __slots__ = ("process", "port", "pid", "transport", "restarts", "warm_starts",
                 "recovery", "report", "start", "supervisor")

    def __init__(self, index: int, node_id: str) -> None:
        super().__init__(index, node_id)
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.port = self.pid = None
        self.transport: Optional[asyncio.Transport] = None
        self.restarts = self.warm_starts = 0
        #: Latest ready report (+ our ``launched``), its replay, its spawn's split.
        self.report: Dict[str, Any] = {}
        self.recovery: Optional[Dict[str, Any]] = None
        self.start: Optional[Dict[str, float]] = None
        self.supervisor: Optional[asyncio.Task] = None


#: How long a ``stats`` request waits for a worker's snapshot (else ``null``).
_STATS_WAIT_S = 2.0


class _Buffered(asyncio.BufferedProtocol):
    """Reads land in the gateway's one buffer (``recv_into``): asyncio's
    ``recv(256 KiB)`` allocates past malloc's mmap threshold on every read."""

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.gateway._buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self.gateway._buffer[:nbytes])


class _WorkerProtocol(_Buffered):
    """One worker connection; ``lost`` resolves, to the frames it owed, on close."""

    def __init__(self, gateway: "ServiceGateway", index: int) -> None:
        self.gateway = gateway
        self.index = index
        self.lost: asyncio.Future = asyncio.get_running_loop().create_future()

    def data_received(self, data: bytes) -> None:
        self.gateway._write(self.gateway.on_worker_bytes(self.index, data))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        gateway = self.gateway
        worker = gateway.workers[self.index]
        worker.transport = None
        failed = len(worker.outstanding)
        gateway._write(gateway.on_worker_lost(self.index))
        if not self.lost.cancelled():  # it is, with its supervisor, on close
            self.lost.set_result(failed)


class _ClientProtocol(_Buffered):
    """One client connection.  ``GET `` as its first four bytes is an HTTP
    request for ``/stats`` or ``/metrics``; anything else is the first
    length prefix, and every byte goes to the core."""

    def __init__(self, gateway: "ServiceGateway") -> None:
        self.gateway = gateway
        self.transport: Optional[asyncio.Transport] = None
        #: The bytes before the sniff, then the HTTP head; ``None``: frames.
        self.head: Optional[bytes] = b""
        self.http = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # asyncio sets TCP_NODELAY on it

    def data_received(self, data: bytes) -> None:
        gateway = self.gateway
        if self.head is None:
            gateway._write(gateway.on_client_bytes(self, data))
            return
        head = self.head + data
        if not self.http:
            if len(head) < 4:  # the first length prefix may arrive split
                self.head = head
                return
            if head[:4] != b"GET ":
                self.head = None
                gateway._write(gateway.on_client_bytes(self, head))
                return
            self.http, head = True, head[4:]
            asyncio.get_running_loop().call_later(5.0, self.transport.close)
        self.head = head
        end = head.find(b"\r\n\r\n")
        if end >= 0:
            self.transport.pause_reading()
            # The sniff consumed ``GET ``: the request line starts at the path.
            path = head[:end].split(b"\r\n", 1)[0].split(b" ")[0] or b"/"
            gateway._spawn_task(gateway._serve_http(self.transport, path))
        elif len(head) > 64 * 1024:  # no end of headers in 64 KiB: not HTTP
            gateway._protocol_error("oversized HTTP request head")
            self.transport.close()

    def eof_received(self) -> bool:
        if self.head is None:
            # The core closes the write side once every batch is answered.
            self.gateway._write(self.gateway.on_client_bytes(self, b""))
            return True
        if self.head and not self.http:
            self.gateway._protocol_error("connection closed inside the first header")
        return False

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.gateway.on_client_lost(self, exc)

    # A client that stops reading its replies stops being read.
    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()


class ServiceGateway(GatewayCore):
    """Accepts client batches, shards them to workers, merges the verdicts."""

    worker_type = _Worker

    def __init__(self, config: ServeConfig, verbose: bool = False) -> None:
        super().__init__([config.node_id(i) for i in range(config.num_nodes)],
                         config.max_queue, config.max_inflight, get_codec(config.codec),
                         verbose)
        self.config = config
        self._mp = multiprocessing.get_context("spawn")
        self._server: Optional[asyncio.base_events.Server] = None
        self._reporter: Optional[asyncio.Task] = None
        self._tasks: set = set()  # the rare paths' (``stats``, HTTP), until done
        self.port: Optional[int] = None
        self.started_at = 0.0
        self._stats_frame = encode_frame({"t": "stats"}, self.codec)
        self._buffer = memoryview(bytearray(256 * 1024))

    def _write(self, out: Output) -> None:
        """Write what the core returned: one ``write`` per connection, then any close."""
        frames: Dict[Any, list] = {}
        for destination, frame in out:
            frames.setdefault(destination, []).append(frame)
        for destination, parts in frames.items():
            transport = (self.workers[destination].transport if type(destination) is int
                         else destination.transport)
            if transport is not None and not transport.is_closing():
                transport.write(b"".join(filter(None, parts)))
                if parts[-1] is None:
                    transport.close()

    def _spawn_task(self, coroutine) -> None:
        task = asyncio.ensure_future(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _ask_worker(self, worker: _Worker, frame: bytes) -> asyncio.Future:
        """A control frame through ``worker``'s FIFO; the future gets its answer."""
        future = asyncio.get_running_loop().create_future()
        self._write(self.control(worker.index, frame,  # unless its waiter gave up:
                                 lambda reply: future.done() or future.set_result(reply)))
        return future

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Spawn the fleet, wait for every shard to recover, open the door."""
        self.started_at = time.perf_counter()
        await asyncio.gather(*(self._spawn(worker) for worker in self.workers))
        # Workers are connected before the listener exists, so the first
        # client batch never races worker startup.
        for worker in self.workers:
            lost = await self._connect(worker)
            worker.supervisor = asyncio.ensure_future(self._supervise(worker, lost))
        loop = asyncio.get_running_loop()
        try:
            self._server = await loop.create_server(
                lambda: _ClientProtocol(self), self.config.host, self.config.port)
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
        # Every live worker snapshots and exits; its supervisor will not respawn it.
        frame = encode_frame({"t": "shutdown"}, self.codec)
        shutdowns = [self._ask_worker(worker, frame)
                     for worker in self.workers if worker.ready.is_set()]
        if shutdowns:
            await asyncio.wait(shutdowns, timeout=self.config.drain_timeout)
        await self._abort_workers()
        self._event("drained")

    async def _abort_workers(self) -> None:
        self._closing = True
        for worker in self.workers:
            if worker.supervisor is not None:
                worker.supervisor.cancel()
            if worker.transport is not None:
                worker.transport.close()
        for worker in self.workers:
            await self._reap(worker)
        self._cleanup_shared_segments()

    @staticmethod
    async def _reap(worker: _Worker) -> None:
        """Join ``worker``'s process for 2 s, then kill it (and join again)."""
        process = worker.process
        if process is not None and process.is_alive():
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, process.join, 2.0)
            if process.is_alive():
                process.kill()
                await loop.run_in_executor(None, process.join, 2.0)

    def _cleanup_shared_segments(self) -> None:
        """Unlink the workers' shared bloom segments, ``kill -9`` leftovers
        included: workers disown them so that respawns can adopt them."""
        if not self.config.shared_bloom:
            return
        from ..storage.shm import unlink_segment

        for worker in self.workers:
            name = self.config.shared_bloom_name(worker.index)
            if name is not None:
                unlink_segment(name)

    # ------------------------------------------------------------- worker fleet
    async def _spawn(self, worker: _Worker) -> None:
        """Start the worker process and wait for its ready report."""
        spec = self.config.worker_spec(worker.index)
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(target=worker_main, args=(spec, child_conn), daemon=True)
        loop = asyncio.get_running_loop()
        launched = time.monotonic()
        await loop.run_in_executor(None, process.start)
        child_conn.close()
        timeout = self.config.spawn_timeout
        try:
            ready = await loop.run_in_executor(
                None, lambda: parent_conn.poll(timeout) and parent_conn.recv())
        except EOFError:
            ready = {"error": "exited before reporting ready"}
        finally:
            parent_conn.close()
        if not ready or "error" in ready:
            process.kill()
            error = ready["error"] if ready else f"no ready report within {timeout:.0f}s"
            raise ServingError(f"worker {spec.node_id} failed to start: {error}")
        worker.process = process
        worker.port = int(ready["port"])
        worker.pid = int(ready["pid"])
        worker.report = dict(ready, launched=launched)

    def _worker_ready(self, worker: _Worker, connected: float) -> None:
        """A fresh worker is connected: record what its start did, and say so.

        ``start`` splits ``process.start`` to connected by ``time.monotonic()``
        stamps from both processes: interpreter and imports (``start_ms``),
        store open plus any recovery (``build_ms``), and bind, ready report
        and connect (``ready_ms``); they sum to ``spawn_ms``.
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

    async def _connect(self, worker: _Worker) -> asyncio.Future:
        """Connect to a ready worker; returns the future its connection loss resolves."""
        loop = asyncio.get_running_loop()
        while True:
            try:
                transport, protocol = await loop.create_connection(
                    lambda: _WorkerProtocol(self, worker.index), self.config.host, worker.port)
                break
            except OSError:
                await asyncio.sleep(0.05)
        self._worker_ready(worker, time.monotonic())
        worker.transport = transport
        worker.ready.set()
        return protocol.lost

    async def _supervise(self, worker: _Worker, lost: asyncio.Future) -> None:
        """Respawn the worker each time its connection is lost, for as long as we run."""
        while True:
            failed = await lost
            if self._closing:
                return
            # It died under us or was dropped (its batches are answered): a
            # fresh one on the same shard once this one cannot hold the log.
            await self._reap(worker)
            worker.restarts += 1
            self._event("worker_died", node=worker.node_id, pid=worker.pid,
                        failed_frames=failed, restarts=worker.restarts)
            while True:
                try:
                    await self._spawn(worker)
                    break
                except ServingError as error:  # pragma: no cover - respawn failure
                    self._event("respawn_failed", node=worker.node_id, error=str(error))
                    await asyncio.sleep(0.5)
            lost = await self._connect(worker)

    # ------------------------------------------------------------- client side
    def _control(self, client: Any, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        kind = message.get("t")
        if kind == "stats":
            self._spawn_task(self._answer_stats(client, message.get("id")))
            return None
        if kind == "kill_worker":
            return self._handle_kill(message)
        return super()._control(client, message)

    async def _answer_stats(self, client: _ClientProtocol, message_id: Any) -> None:
        reply = {"t": "stats", "id": message_id, "stats": await self.fleet_stats()}
        self._write(self.answer_control(client, reply))

    def _handle_kill(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Admin fault injection: SIGKILL one worker (it will be respawned)."""
        node, message_id = message.get("node"), message.get("id")
        worker = next((w for w in self.workers if node in (w.node_id, w.index)), None)
        if worker is None or worker.process is None or not worker.process.is_alive():
            error = (f"no such worker {node!r}" if worker is None
                     else f"worker {node!r} is not running")
            return {"t": "reply", "id": message_id, "ok": False, "err": error, "retry": False}
        worker.process.kill()
        self._event("worker_killed", node=worker.node_id, pid=worker.pid)
        return {"t": "reply", "id": message_id, "ok": True, "node": worker.node_id,
                "pid": worker.pid}

    # ------------------------------------------------------------- observability
    def stats(self) -> Dict[str, Any]:
        """The gateway's own view: its registry, flattened, and a row per worker."""
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
            # ``queue_depth``: frames written to the worker, not yet answered.
            "workers": [{"node_id": w.node_id, "pid": w.pid, "port": w.port,
                         "up": w.ready.is_set(), "queue_depth": len(w.outstanding),
                         "sent": w.sent, "replies": w.replies, "restarts": w.restarts,
                         "warm_starts": w.warm_starts, "recovery": w.recovery,
                         "start": w.start} for w in self.workers],
        }

    async def _worker_snapshot(self, worker: _Worker) -> Optional[Dict[str, Any]]:
        """One worker's registry snapshot, asked for over the FIFO batch hop;
        ``None`` if the worker is down, dies first or misses ``_STATS_WAIT_S``."""
        if not worker.ready.is_set():
            return None
        try:
            reply = await asyncio.wait_for(self._ask_worker(worker, self._stats_frame),
                                           timeout=_STATS_WAIT_S)
        except asyncio.TimeoutError:
            return None
        return reply.get("stats")

    async def fleet_stats(self) -> Dict[str, Any]:
        """:meth:`stats` plus each worker's registry snapshot (``telemetry``,
        ``null`` when it could not be had) and ``fleet``, their index-wise sum.
        A respawned worker counts from zero, so a fleet counter can fall --
        ``workers[i]["restarts"]`` says when one did.
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
        handles = [({"node": row["node_id"]}, {
            "counters": {key: row[key] for key in ("sent", "replies", "restarts", "warm_starts")},
            "gauges": {"up": int(row["up"]), "queue_depth": row["queue_depth"]},
            "info": {}, "histograms": {}}) for row in rows]
        measured = [({"node": row["node_id"]}, row["telemetry"])
                    for row in rows if row["telemetry"] is not None]
        return (
            self.telemetry.render_prometheus("shhc_gateway")
            + render_prometheus("shhc_gateway_worker", handles)
            + render_prometheus("shhc_worker", measured)
            + render_prometheus("shhc_fleet", [({}, stats["fleet"])])
        )

    async def _serve_http(self, transport: asyncio.Transport, path: bytes) -> None:
        """Answer one ``GET /stats`` or ``GET /metrics`` (anything else 404s) and close."""
        status, content_type = b"200 OK", b"application/json"
        if path in (b"/stats", b"/"):
            body = json.dumps(await self.fleet_stats(), indent=2).encode("utf-8")
        elif path == b"/metrics":
            body = self._render_metrics(await self.fleet_stats()).encode("utf-8")
            content_type = b"text/plain; version=0.0.4; charset=utf-8"
        else:
            body = b'{"error": "not found"}'
            status = b"404 Not Found"
        if not transport.is_closing():
            transport.write(
                b"HTTP/1.1 " + status + b"\r\n"
                b"Content-Type: " + content_type + b"\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            transport.close()

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
                acked_fingerprints=stats["acked_fingerprints"], fps=round(window / interval),
                p50_us=round(latency["p50"]), p99_us=round(latency["p99"]),
                inflight=stats["inflight"], shed_batches=stats["shed_batches"],
                restarts=sum(w["restarts"] for w in stats["workers"]))
