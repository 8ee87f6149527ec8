"""The only load generator: one asyncio loop, a few pipelined TCP connections.

Frames are built with the public ``repro.serving.wire`` helpers
(``get_codec("json")``, ``encode_frame``, ``read_frame``) and follow the
client<->gateway schema of ``docs/serving.md`` -- the pinned contract.
Every acknowledged reply is checked against the set-based model on arrival.
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.serving.wire import WireError, encode_frame, get_codec, read_frame

from .spec import CHUNK_SIZE, MAX_RETRIES, RETRY_BACKOFF_S, TRACE_SLICE_S
from .streams import Batch, DigestTable, IdentityStream
from .trace import SliceClock, Tracer, now_ns

_JSON = get_codec("json")


class MeteredCodec:
    """The JSON codec plus reply byte counts and (when tracing) decode times."""

    name = _JSON.name
    encode = staticmethod(_JSON.encode)

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.reply_bytes = 0

    def decode(self, payload: bytes) -> Dict[str, Any]:
        self.reply_bytes += len(payload) + 4
        if not self.tracer.on:
            return _JSON.decode(payload)
        started = now_ns()
        message = _JSON.decode(payload)
        message["_decode_ns"] = (started, now_ns())
        return message


class Connection:
    """One TCP connection with id-matched request/reply multiplexing."""

    def __init__(self, tracer: Tracer) -> None:
        self.codec = MeteredCodec(tracer)
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.pending: Dict[int, asyncio.Future] = {}
        self.request_bytes = 0
        self._next_id = 0
        self._read_task: Optional[asyncio.Task] = None

    async def open(self, port: int, host: str = "127.0.0.1") -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(host, port)
        sock = self.writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._read_task = asyncio.ensure_future(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        error: Exception = ConnectionError("connection closed by the service")
        try:
            while True:
                message = await read_frame(self.reader, self.codec)
                if message is None:
                    break
                future = self.pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (WireError, ConnectionError, OSError) as caught:
            error = ConnectionError(str(caught))
        for future in self.pending.values():
            if not future.done():
                future.set_exception(error)
        self.pending.clear()

    def send(self, message: Dict[str, Any]) -> asyncio.Future:
        """Assign an id, encode, write; the future resolves to the reply."""
        self._next_id += 1
        message["id"] = self._next_id
        future = asyncio.get_running_loop().create_future()
        self.pending[self._next_id] = future
        frame = encode_frame(message, self.codec)
        self.request_bytes += len(frame)
        self.writer.write(frame)
        return future

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        future = self.send(message)
        await self.writer.drain()
        return await future

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._read_task is not None:
            await self._read_task


class Model:
    """What a correct service must answer, kept as counts and one watermark."""

    def __init__(self, known: int) -> None:
        #: Every identity below this was first offered in an acknowledged
        #: batch, so offering it again must come back duplicate.
        self.acked_below = known
        self.acked_batches = 0
        self.acked_fps = 0
        self.acked_new = 0
        self.expected_new = 0
        self.failed_batches = 0
        self.failed_fps = 0
        self.violations: List[str] = []
        self._acked: Dict[int, int] = {}
        self._next_seq = 0

    def ack(self, batch: Batch, reply: Dict[str, Any], must_dup: int) -> None:
        size = len(batch.identities)
        new = int(reply.get("new", -1))
        verdicts = int(reply.get("v") or "0", 16)
        if reply.get("n") != size:
            self._violation(f"batch {batch.seq}: n={reply.get('n')} for {size} digests")
        if verdicts.bit_count() != size - new:
            self._violation(f"batch {batch.seq}: popcount(v) != n - new")
        if must_dup & ~verdicts:
            self._violation(f"batch {batch.seq}: an acknowledged digest came back new")
        self.acked_batches += 1
        self.acked_fps += size
        self.acked_new += new
        self.expected_new += batch.new_count
        acked = self._acked
        acked[batch.seq] = batch.known_after
        while self._next_seq in acked:
            self.acked_below = acked.pop(self._next_seq)
            self._next_seq += 1

    def fail(self, batch: Batch) -> None:
        self.failed_batches += 1
        self.failed_fps += len(batch.identities)

    def _violation(self, text: str) -> None:
        if len(self.violations) < 20:
            self.violations.append(text)

    def check_totals(self) -> None:
        """Sum of ``new`` over acknowledged replies == distinct new digests
        offered in them: exact whenever nothing failed (a failed batch's
        digests may be credited to whichever later batch repeats them)."""
        if not self.failed_batches and self.acked_new != self.expected_new:
            self._violation(
                f"sum(new)={self.acked_new} but the model expects {self.expected_new}"
            )


class LoopResult:
    """What one timed loop measured on the client side."""

    def __init__(self) -> None:
        self.rtts_s: List[float] = []
        self.started_s = 0.0
        self.elapsed_s = 0.0
        self.acked_fps = 0
        self.acked_batches = 0
        self.offered_batches = 0
        self.failed_batches = 0
        self.retries = 0
        self.max_late_s = 0.0
        self.pause_s = 0.0
        self.marked = False
        #: Fingerprints acknowledged per 250 ms of the loop (diagnostic: shows
        #: snapshot stalls and host hiccups inside one run).
        self.slice_fps: List[int] = []

    def credit(self, fps: int, since_start_s: float) -> None:
        index = int(since_start_s * 4)
        slices = self.slice_fps
        while len(slices) <= index:
            slices.append(0)
        slices[index] += fps


class LoadGen:
    """Drives one identity stream at a service and records what came back."""

    def __init__(self, port: int, stream: IdentityStream, table: DigestTable,
                 model: Model, tracer: Tracer) -> None:
        self.port = port
        self.stream = stream
        self.table = table
        self.model = model
        self.tracer = tracer
        self.clock = SliceClock(tracer, TRACE_SLICE_S)
        self.conns: List[Connection] = []

    async def open(self, connections: int) -> None:
        for _ in range(connections):
            self.conns.append(await Connection(self.tracer).open(self.port))

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()
        self.conns = []

    def wire_bytes(self) -> tuple:
        return (sum(c.request_bytes for c in self.conns),
                sum(c.codec.reply_bytes for c in self.conns))

    def _message(self, batch: Batch) -> Dict[str, Any]:
        self.table.extend_to(batch.known_after)
        return {"t": "batch", "d": self.table.blob(batch.identities), "s": CHUNK_SIZE}

    async def _exchange(self, conn: Connection, batch: Batch, message: Dict[str, Any],
                        origin_ns: int) -> Tuple[Dict[str, Any], int]:
        """One send -> ``(reply, done_ns)``, spanned when tracing is on.
        ``origin_ns`` is where the caller's wait began (the due time in an
        open loop)."""
        tracer = self.tracer
        traced = tracer.on
        encode_start = now_ns()
        future = conn.send(message)
        sent = now_ns()
        await conn.writer.drain()
        reply = await future
        done = now_ns()
        decode = reply.pop("_decode_ns", None)
        if traced and decode is not None:
            trace_id = batch.seq + 1
            root = tracer.add("client.batch", trace_id, 0, min(origin_ns, encode_start), done)
            tracer.add("client.encode", trace_id, root, encode_start, sent)
            tracer.add("client.send_to_reply", trace_id, root, sent, decode[0])
            tracer.add("client.decode", trace_id, root, decode[0], decode[1])
        return reply, done

    def _acked(self, result: LoopResult, batch: Batch, origin_ns: int, done_ns: int) -> None:
        size = len(batch.identities)
        result.rtts_s.append((done_ns - origin_ns) / 1e9)
        result.acked_batches += 1
        result.acked_fps += size
        result.credit(size, done_ns / 1e9 - result.started_s)
        self.clock.tick(size)

    # ------------------------------------------------------------ closed loop
    async def run_closed(self, seconds: float, pipeline: int, mark_batches: int = 0,
                         on_mark: Optional[Callable[[], None]] = None) -> LoopResult:
        """Each connection keeps ``pipeline`` batches in flight until the
        deadline; at ``mark_batches`` the loops drain once for ``on_mark``."""
        result = LoopResult()
        state = {"inflight": 0, "resume": None}
        idle = asyncio.Event()
        result.started_s = started = time.perf_counter()
        deadline = started + seconds
        if self.tracer.active:
            self.clock.start()

        async def slot(conn: Connection) -> None:
            while True:
                if state["resume"] is not None:
                    await state["resume"].wait()
                if time.perf_counter() >= deadline:
                    return
                if mark_batches and result.offered_batches == mark_batches and not result.marked:
                    result.marked = True
                    state["resume"] = asyncio.Event()
                    paused = time.perf_counter()
                    while state["inflight"]:
                        idle.clear()
                        await idle.wait()
                    if on_mark is not None:
                        on_mark()
                    result.pause_s = time.perf_counter() - paused
                    state["resume"].set()
                    state["resume"] = None
                batch = self.stream.next_batch()
                result.offered_batches += 1
                state["inflight"] += 1
                try:
                    await self._submit_closed(conn, batch, result)
                finally:
                    state["inflight"] -= 1
                    if not state["inflight"]:
                        idle.set()

        await asyncio.gather(*(slot(conn) for conn in self.conns for _ in range(pipeline)))
        result.elapsed_s = time.perf_counter() - started - result.pause_s
        self.clock.stop()
        result.rtts_s.sort()
        return result

    async def _submit_closed(self, conn: Connection, batch: Batch, result: LoopResult) -> None:
        message = self._message(batch)
        model = self.model
        attempts = 0
        while True:
            must_dup = batch.must_be_duplicate_mask(model.acked_below)
            origin = now_ns()
            try:
                reply, done = await self._exchange(conn, batch, message, origin)
            except ConnectionError:
                break
            if reply.get("ok"):
                model.ack(batch, reply, must_dup)
                self._acked(result, batch, origin, done)
                return
            if not reply.get("retry") or attempts >= MAX_RETRIES:
                break
            attempts += 1
            result.retries += 1
            await asyncio.sleep(RETRY_BACKOFF_S * (1 << attempts))
        model.fail(batch)
        result.failed_batches += 1

    # -------------------------------------------------------------- open loop
    async def run_open(self, rate_fps: float, seconds: float) -> LoopResult:
        """One batch due every ``batch_size / rate`` seconds, dealt round-robin
        over the connections, never retried; RTT counts from the due time."""
        result = LoopResult()
        interval = self.stream.batch_size / rate_fps
        count = max(1, int(rate_fps * seconds / self.stream.batch_size))
        tasks = []
        if self.tracer.active:
            self.clock.start()
        result.started_s = started = time.perf_counter() + 0.02
        for index in range(count):
            due = started + index * interval
            batch = self.stream.next_batch()
            message = self._message(batch)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late = time.perf_counter() - due
            if late > result.max_late_s:
                result.max_late_s = late
            conn = self.conns[index % len(self.conns)]
            result.offered_batches += 1
            tasks.append(asyncio.ensure_future(
                self._submit_open(conn, batch, message, due, result)
            ))
        await asyncio.gather(*tasks)
        result.elapsed_s = time.perf_counter() - started
        self.clock.stop()
        result.rtts_s.sort()
        return result

    async def _submit_open(self, conn: Connection, batch: Batch, message: Dict[str, Any],
                           due: float, result: LoopResult) -> None:
        model = self.model
        must_dup = batch.must_be_duplicate_mask(model.acked_below)
        # perf_counter and perf_counter_ns share one clock.
        due_ns = int(due * 1e9)
        try:
            reply, done = await self._exchange(conn, batch, message, due_ns)
        except ConnectionError:
            reply, done = {}, 0
        if reply.get("ok"):
            model.ack(batch, reply, must_dup)
            self._acked(result, batch, due_ns, done)
        else:
            model.fail(batch)
            result.failed_batches += 1
