"""Open/closed-loop load generator for the serving stack.

Simulates thousands of logical clients pushing digest batches at a running
gateway and measures what a client actually experiences: acknowledged
throughput, batch round-trip percentiles, sheds, retries, and -- after the
run -- whether any *acknowledged* fingerprint was lost.

Methodology notes:

* **Digests are precomputed** from integer chunk identities (the same
  ``synthetic_fingerprint`` mapping the simulator's workloads use) before
  the clock starts, so the measurement is of the service, not of client-side
  SHA-1 throughput.  Duplicate structure is injected by re-drawing earlier
  identities with probability ``duplicate_fraction``.
* **Closed loop** (default): each client keeps at most ``pipeline`` batches
  in flight and submits the next only when one completes -- offered load
  tracks service capacity.  **Open loop**: batches are fired on a fixed
  schedule (``arrival_rate_fps``) regardless of completions, which is what
  pushes a service into its shed regime.
* **Retries**: ``OVERLOADED``/``UNAVAILABLE`` replies are retried with
  exponential backoff up to ``max_retries``; every ``OVERLOADED`` reply is
  counted as an observed shed whether or not the retry later succeeds.
* **Fault injection**: ``kill_node`` sends the gateway a ``kill_worker``
  admin frame once ``kill_after_fraction`` of the offered fingerprints have
  been acknowledged, exercising worker respawn under live load.
* **Burst**: ``burst_batches`` extra batches are fired back-to-back (no
  pipeline cap, no retries) once the run is half done, deliberately
  overrunning admission control -- CI asserts the sheds this provokes.
* **Audit**: after the run, every acknowledged identity is looked up again;
  a verdict of "new" means the acknowledged fingerprint vanished (e.g. a
  worker was killed after acking but lost state) and is reported as
  ``lost_acknowledged``.  The serving stack's persist-before-ack ordering
  makes the expected value exactly zero.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import socket
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..telemetry import Histogram
from .wire import WireError, encode_frame, read_frame

__all__ = ["LoadtestConfig", "LoadtestReport", "run_loadtest", "run_loadtest_async"]


@dataclass(frozen=True)
class LoadtestConfig:
    """One load test run against a gateway."""

    host: str = "127.0.0.1"
    port: int = 7411
    #: Client connections (each multiplexes ``pipeline`` in-flight batches,
    #: so logical concurrency is ``clients * pipeline``).
    clients: int = 32
    pipeline: int = 4
    batch_size: int = 256
    #: Total fingerprints offered by the main run (excluding burst/audit).
    fingerprints: int = 200_000
    #: Probability that an offered fingerprint repeats an earlier identity.
    duplicate_fraction: float = 0.25
    chunk_size: int = 8192
    #: ``0`` = closed loop (as fast as completions allow); ``> 0`` = open
    #: loop firing at this many fingerprints per second regardless.
    arrival_rate_fps: float = 0.0
    seed: int = 17
    max_retries: int = 8
    retry_backoff: float = 0.02
    #: Worker to SIGKILL mid-run via the gateway admin frame (``None`` = off).
    kill_node: Optional[str] = None
    #: Fraction of offered fingerprints acknowledged before the kill fires.
    kill_after_fraction: float = 0.25
    #: Extra batches fired back-to-back at the half-way point (no retries).
    burst_batches: int = 0
    audit: bool = True
    report_path: Optional[str] = None
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.clients < 1 or self.pipeline < 1 or self.batch_size < 1:
            raise ValueError("clients, pipeline, and batch_size must be >= 1")
        if self.fingerprints < 1:
            raise ValueError("fingerprints must be >= 1")
        if not 0.0 <= self.duplicate_fraction < 1.0:
            raise ValueError("duplicate_fraction must be in [0, 1)")


@dataclass
class LoadtestReport:
    """What the clients observed, plus the post-run audit verdict."""

    offered_fingerprints: int = 0
    offered_batches: int = 0
    acked_fingerprints: int = 0
    acked_batches: int = 0
    new_fingerprints: int = 0
    duplicate_fingerprints: int = 0
    #: OVERLOADED replies observed (including ones whose retry succeeded).
    sheds: int = 0
    #: UNAVAILABLE replies observed (worker died mid-batch; retried).
    unavailable: int = 0
    retries: int = 0
    #: Batches abandoned after exhausting retries (burst batches shed on
    #: purpose are counted here too -- they are never retried).
    failed_batches: int = 0
    burst_batches: int = 0
    kills_sent: int = 0
    worker_restarts: int = 0
    wall_seconds: float = 0.0
    throughput_fps: float = 0.0
    latency_us: Dict[str, float] = field(default_factory=dict)
    audit_checked: int = 0
    lost_acknowledged: int = 0
    audited: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "offered_fingerprints": self.offered_fingerprints,
            "offered_batches": self.offered_batches,
            "acked_fingerprints": self.acked_fingerprints,
            "acked_batches": self.acked_batches,
            "new_fingerprints": self.new_fingerprints,
            "duplicate_fingerprints": self.duplicate_fingerprints,
            "sheds": self.sheds,
            "unavailable": self.unavailable,
            "retries": self.retries,
            "failed_batches": self.failed_batches,
            "burst_batches": self.burst_batches,
            "kills_sent": self.kills_sent,
            "worker_restarts": self.worker_restarts,
            "wall_seconds": self.wall_seconds,
            "throughput_fps": self.throughput_fps,
            "latency_us": dict(self.latency_us),
            "audit_checked": self.audit_checked,
            "lost_acknowledged": self.lost_acknowledged,
            "audited": self.audited,
        }


def _precompute_digests(universe: int) -> List[str]:
    """Hex digest per identity, identical to ``synthetic_fingerprint``."""
    sha1 = hashlib.sha1
    return [
        sha1(identity.to_bytes(16, "big", signed=False)).hexdigest()
        for identity in range(universe)
    ]


def _build_batches(config: LoadtestConfig) -> Tuple[List[List[int]], int]:
    """Identity stream -> per-batch identity lists; returns the universe size."""
    rng = random.Random(config.seed)
    identities: List[int] = []
    next_unique = 0
    duplicate_fraction = config.duplicate_fraction
    for _ in range(config.fingerprints):
        if next_unique and rng.random() < duplicate_fraction:
            identities.append(rng.randrange(next_unique))
        else:
            identities.append(next_unique)
            next_unique += 1
    batches = [
        identities[start:start + config.batch_size]
        for start in range(0, len(identities), config.batch_size)
    ]
    return batches, next_unique


class _Connection:
    """One TCP connection with id-matched request/reply multiplexing."""

    def __init__(self) -> None:
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.futures: Dict[int, asyncio.Future] = {}
        self.write_lock = asyncio.Lock()
        self._read_task: Optional[asyncio.Task] = None
        self._next_id = 0

    async def open(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(host, port)
        sock = self.writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - not a TCP socket
                pass
        self._read_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                message = await read_frame(self.reader)
                if message is None:
                    break
                future = self.futures.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (WireError, ConnectionError, OSError) as error:
            for future in self.futures.values():
                if not future.done():
                    future.set_exception(ConnectionError(str(error)))
            self.futures.clear()

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame and await its id-matched reply."""
        self._next_id += 1
        message_id = message["id"] = self._next_id
        future = asyncio.get_event_loop().create_future()
        self.futures[message_id] = future
        frame = encode_frame(message)
        async with self.write_lock:
            self.writer.write(frame)
            await self.writer.drain()
        return await future

    async def close(self) -> None:
        if self._read_task is not None:
            self._read_task.cancel()
        if self.writer is not None:
            self.writer.close()


class _Run:
    """Shared mutable state for one load test (single event loop)."""

    def __init__(self, config: LoadtestConfig, digests: List[str]) -> None:
        self.config = config
        self.digests = digests
        self.report = LoadtestReport()
        #: Acked batches' round trips (integer ns), as the gateway keeps its own.
        self.latency = Histogram()
        self.acked_identities: Set[int] = set()
        self.halfway = asyncio.Event()
        self._halfway_threshold = 0

    def blob_of(self, identities: Sequence[int]) -> str:
        digests = self.digests
        return "".join(digests[identity] for identity in identities)

    def note_progress(self) -> None:
        if (
            not self.halfway.is_set()
            and self.report.acked_fingerprints >= self._halfway_threshold
        ):
            self.halfway.set()

    async def submit(
        self,
        conn: _Connection,
        identities: Sequence[int],
        blob: str,
        retries: int,
    ) -> bool:
        """Offer one batch until acked or out of retries; returns success."""
        config = self.config
        report = self.report
        attempts = 0
        message = {"t": "batch", "d": blob, "s": config.chunk_size}
        while True:
            started = time.perf_counter_ns()
            try:
                reply = await conn.request(dict(message))
            except ConnectionError:
                report.failed_batches += 1
                return False
            if reply.get("ok"):
                new = int(reply.get("new", 0))
                report.acked_batches += 1
                report.acked_fingerprints += len(identities)
                report.new_fingerprints += new
                report.duplicate_fingerprints += len(identities) - new
                self.latency.observe(time.perf_counter_ns() - started)
                self.acked_identities.update(identities)
                self.note_progress()
                return True
            error = reply.get("err")
            if error == "OVERLOADED":
                report.sheds += 1
            elif error == "UNAVAILABLE":
                report.unavailable += 1
            if not reply.get("retry") or attempts >= retries:
                report.failed_batches += 1
                return False
            attempts += 1
            report.retries += 1
            await asyncio.sleep(config.retry_backoff * (1 << min(attempts, 5)))


async def _client(run: _Run, batches: List[List[int]], start_at: float,
                  interval: float) -> None:
    """One client connection working through its share of the batches."""
    config = run.config
    conn = _Connection()
    await conn.open(config.host, config.port)
    try:
        if interval > 0.0:
            # Open loop: fire on schedule, completions be damned.
            tasks = []
            for index, identities in enumerate(batches):
                delay = start_at + index * interval - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.ensure_future(
                    run.submit(conn, identities, run.blob_of(identities),
                               config.max_retries)
                ))
            if tasks:
                await asyncio.gather(*tasks)
        else:
            # Closed loop: at most ``pipeline`` batches in flight.
            semaphore = asyncio.Semaphore(config.pipeline)

            async def _one(identities: List[int]) -> None:
                try:
                    await run.submit(conn, identities, run.blob_of(identities),
                                     config.max_retries)
                finally:
                    semaphore.release()

            tasks = []
            for identities in batches:
                await semaphore.acquire()
                tasks.append(asyncio.ensure_future(_one(identities)))
            if tasks:
                await asyncio.gather(*tasks)
    finally:
        await conn.close()


async def _burst(run: _Run) -> None:
    """Fire ``burst_batches`` beyond admission control; sheds are the point."""
    config = run.config
    await run.halfway.wait()
    rng = random.Random(config.seed + 1)
    universe = len(run.digests)
    conn = _Connection()
    await conn.open(config.host, config.port)
    run.report.burst_batches = config.burst_batches
    run.report.offered_batches += config.burst_batches
    run.report.offered_fingerprints += config.burst_batches * config.batch_size
    try:
        tasks = []
        for _ in range(config.burst_batches):
            identities = [rng.randrange(universe) for _ in range(config.batch_size)]
            tasks.append(asyncio.ensure_future(
                run.submit(conn, identities, run.blob_of(identities), retries=0)
            ))
        await asyncio.gather(*tasks)
    finally:
        await conn.close()


async def _killer(run: _Run) -> None:
    """SIGKILL one worker (via the gateway) once enough load was acked."""
    config = run.config
    threshold = int(config.fingerprints * config.kill_after_fraction)
    while run.report.acked_fingerprints < threshold:
        await asyncio.sleep(0.005)
    conn = _Connection()
    await conn.open(config.host, config.port)
    try:
        reply = await conn.request({"t": "kill_worker", "node": config.kill_node})
        if reply.get("ok"):
            run.report.kills_sent += 1
            if config.verbose:
                print(f"[loadtest] killed {config.kill_node} mid-run",
                      file=sys.stderr, flush=True)
    finally:
        await conn.close()


async def _audit(run: _Run) -> None:
    """Re-look-up every acknowledged identity; count the ones that vanished.

    An acknowledged fingerprint is durably stored before its ack leaves the
    worker, so a "new" verdict here means a previously acknowledged
    fingerprint was lost (``lost_acknowledged``) -- the one number the
    kill/respawn scenario must keep at zero.
    """
    config = run.config
    report = run.report
    identities = sorted(run.acked_identities)
    report.audit_checked = len(identities)
    conn = _Connection()
    await conn.open(config.host, config.port)
    audit_batch = max(config.batch_size, 256)
    try:
        for start in range(0, len(identities), audit_batch):
            chunk = identities[start:start + audit_batch]
            message = {"t": "batch", "d": run.blob_of(chunk), "s": config.chunk_size}
            attempts = 0
            while True:
                reply = await conn.request(dict(message))
                if reply.get("ok"):
                    report.lost_acknowledged += int(reply.get("new", 0))
                    break
                if attempts >= max(config.max_retries, 8):
                    raise RuntimeError(
                        f"audit batch failed after {attempts} retries: {reply}"
                    )
                attempts += 1
                await asyncio.sleep(config.retry_backoff * (1 << min(attempts, 5)))
    finally:
        await conn.close()
    report.audited = True


async def _fetch_restarts(run: _Run) -> None:
    conn = _Connection()
    try:
        await conn.open(run.config.host, run.config.port)
        reply = await conn.request({"t": "stats"})
        workers = reply.get("stats", {}).get("workers", [])
        run.report.worker_restarts = sum(int(w.get("restarts", 0)) for w in workers)
    except (ConnectionError, OSError):  # pragma: no cover - stats are best-effort
        pass
    finally:
        await conn.close()


async def run_loadtest_async(config: LoadtestConfig) -> LoadtestReport:
    """Drive one load test against a running gateway; returns the report."""
    batches, universe = _build_batches(config)
    digests = _precompute_digests(universe)
    run = _Run(config, digests)
    run._halfway_threshold = config.fingerprints // 2
    run.report.offered_fingerprints = config.fingerprints
    run.report.offered_batches = len(batches)

    # Deal batches round-robin so every client sees the full run's timeline.
    shares: List[List[List[int]]] = [[] for _ in range(config.clients)]
    for index, batch in enumerate(batches):
        shares[index % config.clients].append(batch)
    interval = 0.0
    if config.arrival_rate_fps > 0:
        # Per-client firing interval that sums to the target aggregate rate.
        interval = config.batch_size * config.clients / config.arrival_rate_fps

    side_tasks: List[asyncio.Task] = []
    if config.kill_node is not None:
        side_tasks.append(asyncio.ensure_future(_killer(run)))
    if config.burst_batches > 0:
        side_tasks.append(asyncio.ensure_future(_burst(run)))

    started = time.perf_counter()
    start_at = started + 0.01
    await asyncio.gather(*(
        _client(run, share, start_at, interval)
        for share in shares if share
    ))
    # A tiny run can finish before the halfway trigger fires the side tasks.
    run.halfway.set()
    if side_tasks:
        await asyncio.gather(*side_tasks)
    run.report.wall_seconds = time.perf_counter() - started
    run.report.throughput_fps = (
        run.report.acked_fingerprints / run.report.wall_seconds
        if run.report.wall_seconds > 0 else 0.0
    )
    run.report.latency_us = run.latency.summary_us()

    if config.audit:
        await _audit(run)
    await _fetch_restarts(run)

    if config.report_path:
        with open(config.report_path, "w", encoding="utf-8") as handle:
            json.dump(run.report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if config.verbose:
        report = run.report
        print(
            f"[loadtest] acked={report.acked_fingerprints}/{report.offered_fingerprints} "
            f"fp in {report.wall_seconds:.2f}s ({report.throughput_fps:.0f} fp/s) "
            f"p50={report.latency_us.get('p50', 0.0):.0f}us "
            f"p99={report.latency_us.get('p99', 0.0):.0f}us "
            f"sheds={report.sheds} retries={report.retries} "
            f"restarts={report.worker_restarts} lost={report.lost_acknowledged}",
            file=sys.stderr, flush=True,
        )
    return run.report


def run_loadtest(config: LoadtestConfig) -> LoadtestReport:
    """Synchronous wrapper around :func:`run_loadtest_async`."""
    return asyncio.run(run_loadtest_async(config))
