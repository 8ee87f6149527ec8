"""The gateway's batch path without sockets: bytes in, frames out.

:class:`GatewayCore` does everything the gateway does to a batch, written
against bytes rather than connections (it imports no ``asyncio``):

* :meth:`~GatewayCore.on_client_bytes` -- bytes from a client (``b""`` is
  its EOF): whole frames are decoded, routed, admitted and split into one
  packed frame per touched worker;
* :meth:`~GatewayCore.on_worker_bytes` -- bytes from worker *i*: each reply
  settles that worker's oldest outstanding frame (workers answer in arrival
  order), and a batch whose last part is in is merged in client order;
* :meth:`~GatewayCore.on_worker_lost` -- every batch with a frame
  outstanding on worker *i* is answered ``UNAVAILABLE``, once;
* :meth:`~GatewayCore.on_client_lost` -- the replies still owed to that
  client are dropped.

The first three return ``[(destination, frame)]``: ``destination`` is a
worker index or the client object passed in, and a ``None`` frame means
"close that connection after the frames before it".  The gateway's own
``stats`` and ``shutdown`` frames ride a worker's FIFO as callback tokens
(:meth:`~GatewayCore.control`); a client's ``stats`` or ``kill_worker`` goes
to :meth:`~GatewayCore._control`, which the socket shell overrides, and a
reply it owes comes back through :meth:`~GatewayCore.answer_control`.
"""

from __future__ import annotations

import struct
import time
import traceback
from collections import deque
from itertools import compress
from threading import Event
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..core.partition import RangePartitioner
from ..storage.packing import DIGEST_BYTES, split_digests
from ..telemetry import Registry, event
from .wire import (
    WireError,
    decode_payload,
    encode_batch_frame,
    encode_frame,
    frame_payloads,
    mask_bits,
)

__all__ = ["GatewayCore", "WorkerLink", "UNAVAILABLE", "OVERLOADED", "SHUTTING_DOWN"]

#: What the entry points return: frames to write, ``None`` to close.
Output = List[Tuple[Any, Optional[bytes]]]

UNAVAILABLE = {"t": "reply", "ok": False, "err": "UNAVAILABLE", "retry": True}
OVERLOADED = {"t": "reply", "ok": False, "err": "OVERLOADED", "retry": True}
SHUTTING_DOWN = {"t": "reply", "ok": False, "err": "SHUTTING_DOWN", "retry": False}

class WorkerLink:
    """The core's side of one worker connection."""

    __slots__ = ("index", "node_id", "ready", "outstanding", "pending", "sent", "replies")

    def __init__(self, index: int, node_id: str) -> None:
        self.index = index
        self.node_id = node_id
        #: Set while the worker is up (a flag spelt like an event; no threads).
        self.ready = Event()
        #: A token per frame written and not yet answered, oldest first: the
        #: :class:`_Batch` of a batch frame, or a control frame's callback.
        self.outstanding: Deque[Union["_Batch", Callable[[Dict[str, Any]], None]]] = deque()
        self.pending = bytearray()  # a reply frame's first bytes
        self.sent = self.replies = 0


class _Client:
    """One client connection: its partial frame and the batches owed to it."""

    __slots__ = ("client", "pending", "inflight", "ended", "lost")

    def __init__(self, client: Any) -> None:
        self.client = client
        self.pending = bytearray()
        self.inflight = 0
        self.ended = False  # EOF or a protocol error: close once answered
        self.lost = False  # the connection is gone: drop its replies


class _Batch:
    """An admitted batch waiting for its parts."""

    __slots__ = ("client", "id", "owners", "started", "waiting", "parts", "new", "done")

    def __init__(self, client: _Client, message_id: Any, owners: bytes, started: int,
                 waiting: int) -> None:
        self.client = client
        self.id = message_id
        self.owners = owners
        self.started = started
        self.waiting = waiting
        self.parts: Dict[int, str] = {}  # worker index -> its "0"/"1" verdicts
        self.new = 0
        self.done = False


class GatewayCore:
    """Route, admit, split, match and merge batches; no sockets, no event loop."""

    worker_type = WorkerLink

    def __init__(self, node_ids: Sequence[str], max_queue: int, max_inflight: int, codec,
                 verbose: bool = False) -> None:
        self.codec = codec
        self.max_queue = max_queue
        self.max_inflight = max_inflight
        self.verbose = verbose
        # Same contiguous range sharding as the in-process cluster; its
        # ``owner_indexes`` names each digest's worker in one byte, and
        # ``_selects[i]`` maps those bytes to "is worker i's" for ``compress``.
        self._partitioner = RangePartitioner(list(node_ids))
        self._selects = [bytes(o == i for o in range(256)) for i in range(len(node_ids))]
        self.workers = [self.worker_type(i, node_id) for i, node_id in enumerate(node_ids)]
        self._clients: Dict[Any, _Client] = {}
        self._closing = False
        #: Admitted-but-unanswered batches: admission state, reported as a gauge.
        self.inflight = 0
        #: The gateway's own metrics (``/stats`` and ``/metrics`` read them).
        self.telemetry = Registry(counters=(
            "acked_batches", "acked_fingerprints", "new_fingerprints",
            "duplicate_fingerprints", "shed_batches", "shed_fingerprints",
            "unavailable_batches", "protocol_errors",
        ))
        #: Admission to merged reply, per acknowledged batch (nanoseconds).
        self.batch_latency = self.telemetry.histogram("batch_latency")
        self._window_acked = 0  # fingerprints acked since the last report line

    # ------------------------------------------------------------- client side
    def on_client_bytes(self, client: Any, data: bytes) -> Output:
        """Bytes from ``client`` (``b""``: it sent EOF); replies and worker frames out."""
        state = self._clients.get(client)
        if state is None:
            state = self._clients[client] = _Client(client)
        out: Output = []
        if state.ended:
            return out
        try:
            if not data:
                if state.pending:
                    raise WireError("connection closed mid-frame")
                self._end(state, out)
                return out
            decode = self.codec.decode
            for payload in frame_payloads(state.pending, data):
                message = decode(payload)
                kind = message.get("t")
                if kind == "batch":
                    self._on_batch(state, message, out)
                    continue
                if kind == "ping":
                    reply: Optional[Dict[str, Any]] = {"t": "pong", "id": message.get("id")}
                else:
                    reply = self._control(client, message)
                if reply is None:  # owed: :meth:`answer_control` delivers it
                    state.inflight += 1
                else:
                    out.append((client, encode_frame(reply, self.codec)))
        except Exception as error:  # noqa: BLE001 - outside input, e.g. a RecursionError
            # Whatever the frame raised, ``out`` holds the frames of the
            # batches admitted before it: dropping them would leave their
            # tokens in the workers' FIFOs and shift every later match.
            self._protocol_error(str(error) or type(error).__name__)
            state.pending.clear()
            self._end(state, out)
        return out

    def answer_control(self, client: Any, reply: Dict[str, Any]) -> Output:
        """The reply :meth:`_control` owed ``client`` (dropped if it is gone)."""
        out: Output = []
        state = self._clients.get(client)
        if state is not None:
            self._deliver(state, reply, out)
        return out

    def on_client_lost(self, client: Any, error: Optional[BaseException] = None) -> None:
        """``client``'s connection is gone; an ``error`` that ended it is counted."""
        state = self._clients.pop(client, None)
        if state is not None and error is not None and not state.ended:
            self._protocol_error(str(error) or type(error).__name__)
        if state is not None:
            state.ended = state.lost = True

    def _control(self, client: Any, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The reply to a frame that is not a batch or a ping; ``None`` owes it,
        and the client stays open until :meth:`answer_control` delivers it."""
        return {"t": "reply", "id": message.get("id"), "ok": False,
                "err": f"unknown message type {message.get('t')!r}", "retry": False}

    def _end(self, state: _Client, out: Output) -> None:
        state.ended = True
        if not state.inflight:
            out.append((state.client, None))

    def _on_batch(self, state: _Client, message: Dict[str, Any], out: Output) -> None:
        """Every batch frame gets exactly one reply, a crash included."""
        try:
            reply = self._admit(state, message, out)
        except Exception as error:  # noqa: BLE001 - every batch frame gets one reply
            # Not gated by ``verbose``: a crash on the batch path is never routine.
            event("batch_failed", id=message.get("id"), error=type(error).__name__,
                  traceback=traceback.format_exc())
            self.telemetry.counters["protocol_errors"] += 1
            reply = {"t": "reply", "id": message.get("id"), "ok": False,
                     "err": f"internal error: {type(error).__name__}", "retry": False}
        if reply is not None:
            out.append((state.client, encode_frame(reply, self.codec)))

    def _admit(self, state: _Client, message: Dict[str, Any], out: Output) -> Optional[dict]:
        """Route, split and admit one batch; the reply if it is not admitted."""
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
            return {**SHUTTING_DOWN, "id": message_id}
        owners = self._partitioner.owner_indexes(blob)
        try:
            frames = self._split(blob, owners, sizes)
        except struct.error:  # a size that is not an integer in u32
            return self._malformed(message_id, "chunk sizes")
        refusal = self._refusal(frames)
        if refusal is not None:
            counters = self.telemetry.counters
            counters["shed_batches"] += 1
            counters["shed_fingerprints"] += count
            self._event("shed", id=message_id, fingerprints=count, **refusal)
            return {**OVERLOADED, "id": message_id}
        batch = _Batch(state, message_id, owners, started, len(frames))
        workers = self.workers
        for index, frame in frames.items():
            worker = workers[index]
            worker.outstanding.append(batch)
            worker.sent += 1
            out.append((index, frame))
        self.inflight += 1
        state.inflight += 1
        return None

    def _split(self, blob: bytes, owners: bytes,
               sizes: Union[int, List[int]]) -> Dict[int, bytes]:
        """One packed batch frame per touched worker, digest order kept."""
        digests = split_digests(blob)
        frames = {}
        for index in [i for i in range(len(self.workers)) if i in owners]:
            mine = owners.translate(self._selects[index])
            frames[index] = encode_batch_frame(
                b"".join(compress(digests, mine)),
                sizes if isinstance(sizes, int) else tuple(compress(sizes, mine)),
            )
        return frames

    def _refusal(self, frames: Dict[int, bytes]) -> Optional[Dict[str, Any]]:
        """The admission rule that refuses a batch now, named for the ``shed``
        event (``None`` admits it): at most ``max_inflight`` unanswered
        batches, and every touched worker up with fewer than ``max_queue``
        frames outstanding (written, not yet answered)."""
        if self.inflight >= self.max_inflight:
            return {"rule": "max_inflight", "inflight": self.inflight}
        for index in frames:
            worker = self.workers[index]
            if not worker.ready.is_set():
                return {"rule": "worker_down", "worker": worker.node_id}
            if len(worker.outstanding) >= self.max_queue:
                return {"rule": "max_queue", "worker": worker.node_id}
        return None

    def _malformed(self, message_id: Any, what: str) -> Dict[str, Any]:
        self._protocol_error(f"malformed {what}")
        return {"t": "reply", "id": message_id, "ok": False,
                "err": f"malformed {what}", "retry": False}

    # ------------------------------------------------------------- worker side
    def on_worker_bytes(self, index: int, data: bytes) -> Output:
        """Bytes from worker ``index``: each reply settles the oldest outstanding frame."""
        worker = self.workers[index]
        out: Output = []
        try:
            for payload in frame_payloads(worker.pending, data):
                message = decode_payload(payload, self.codec)
                if not worker.outstanding:  # pragma: no cover - protocol violation
                    self._protocol_error(f"{worker.node_id} answered a frame nobody sent")
                    continue
                token = worker.outstanding.popleft()
                if message.get("t") == "reply":  # a verdict frame or a shutdown ack
                    worker.replies += 1
                if type(token) is _Batch:
                    self._on_part(token, index, message, out)
                else:
                    token(message)
        except Exception:  # noqa: BLE001 - keep ``out``: it answers popped tokens
            # Garbage on the worker hop: drop the connection, which answers
            # everything outstanding there through ``on_worker_lost``.
            out.append((index, None))
        return out

    def on_worker_lost(self, index: int) -> Output:
        """Worker ``index`` is gone: what it owed is answered ``UNAVAILABLE``."""
        worker = self.workers[index]
        worker.ready.clear()
        worker.pending.clear()
        out: Output = []
        outstanding = worker.outstanding
        while outstanding:
            token = outstanding.popleft()
            if type(token) is _Batch:
                self._answer(token, {**UNAVAILABLE, "id": token.id}, out)
            else:
                token(dict(UNAVAILABLE))
        return out

    def control(self, index: int, frame: bytes, on_reply: Callable[[dict], None]) -> Output:
        """A control frame for worker ``index``; ``on_reply`` gets its answer
        (``UNAVAILABLE`` if the worker is lost first)."""
        self.workers[index].outstanding.append(on_reply)
        return [(index, frame)]

    def _on_part(self, batch: _Batch, index: int, message: Dict[str, Any], out: Output) -> None:
        if batch.done:
            return  # already answered: another of its workers failed
        if not message.get("ok"):
            # Nothing was acknowledged, so the client may retry the whole
            # batch against the respawned shard.
            self._answer(batch, {**message, "id": batch.id}, out)
            return
        expected = batch.owners.count(index)
        if message.get("n") != expected:
            self._protocol_error(f"{self.workers[index].node_id} answered "
                                 f"{message.get('n')} verdicts for {expected} digests")
            self._answer(batch, {**UNAVAILABLE, "id": batch.id}, out)
            return
        batch.parts[index] = mask_bits(message["v"], expected)
        batch.new += message["new"]
        batch.waiting -= 1
        if batch.waiting:
            return
        # Re-interleave: digest i's verdict is the next unread bit of its
        # owner's sub-mask (sub-batches kept digest order).
        verdicts = {owner: iter(bits) for owner, bits in batch.parts.items()}
        bits = "".join(map(next, map(verdicts.__getitem__, batch.owners)))
        count, new_entries = len(batch.owners), batch.new
        counters = self.telemetry.counters
        counters["acked_batches"] += 1
        counters["acked_fingerprints"] += count
        self._window_acked += count
        counters["new_fingerprints"] += new_entries
        counters["duplicate_fingerprints"] += count - new_entries
        self.batch_latency.observe(time.perf_counter_ns() - batch.started)
        self._answer(batch, {"t": "reply", "id": batch.id, "ok": True,
                             "v": format(int(bits[::-1], 2), "x"), "n": count,
                             "new": new_entries}, out)

    def _answer(self, batch: _Batch, reply: Dict[str, Any], out: Output) -> None:
        """A batch's one reply (a failure counts as unavailable)."""
        if batch.done:
            return
        if not reply["ok"]:
            self.telemetry.counters["unavailable_batches"] += 1
        batch.done = True
        self.inflight -= 1
        self._deliver(batch.client, reply, out)

    def _deliver(self, state: _Client, reply: Dict[str, Any], out: Output) -> None:
        """One owed reply to a client, closing it after its last once it ended."""
        state.inflight -= 1
        if state.lost:
            return
        out.append((state.client, encode_frame(reply, self.codec)))
        if state.ended and not state.inflight:
            out.append((state.client, None))

    def _protocol_error(self, cause: str) -> None:
        self.telemetry.counters["protocol_errors"] += 1
        self._event("protocol_error", source="gateway", cause=cause)

    def _event(self, name: str, **fields: Any) -> None:
        """A routine lifecycle event: one JSON line on stderr under ``verbose``."""
        if self.verbose:
            event(name, **fields)
