"""The gateway's socket-free core, driven byte by byte against a model.

No sockets and no event loop: client frames go into
:meth:`GatewayCore.on_client_bytes` in random chunkings (one byte at a time,
several frames per chunk), model workers answer the frames the core hands
them with a verdict per digest that is a pure function of the digest, their
reply bytes come back interleaved across workers in random chunks, and
workers are lost at random points, mid-frame included.  Whatever the
schedule, every batch id gets exactly one reply; an OK reply equals the
per-position model; a batch that had a frame outstanding on a lost worker
is answered ``UNAVAILABLE`` exactly once and never OK; malformed frames get
the same ``malformed ...`` replies the live gateway gives.
"""

from __future__ import annotations

import struct
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import RangePartitioner
from repro.serving.gateway_core import GatewayCore
from repro.serving.wire import (
    JsonCodec,
    decode_payload,
    encode_frame,
    encode_verdict_frame,
    unpack_verdicts,
)

_MALFORMED = [
    ({"d": "0" * 16 + "z" * 24, "s": 8192}, "malformed digest blob"),
    ({"d": 12345, "s": 8192}, "malformed digest blob"),
    ({"d": "", "s": 8192}, "malformed digest blob"),
    ({"d": "ab" * 19, "s": 8192}, "malformed digest blob"),
    ({"d": "ab" * 20 + " " * 40, "s": 8192}, "malformed digest blob"),
    ({"d": "ab" * 40, "s": [4096]}, "malformed chunk sizes"),
    ({"d": "ab" * 40, "s": [4096, 2**32]}, "malformed chunk sizes"),
    ({"d": "ab" * 40, "s": [4096, -1]}, "malformed chunk sizes"),
    ({"d": "ab" * 40, "s": "4096"}, "malformed chunk sizes"),
]


_UNAVAILABLE = {"t": "reply", "ok": False, "err": "UNAVAILABLE", "retry": True}


def _verdict(digest: bytes) -> int:
    """The model workers' answer for one digest: a duplicate iff its last byte is odd."""
    return digest[-1] & 1


def _frames(data: bytes) -> list:
    """Whole frames' payloads (the core only ever emits whole frames)."""
    payloads, start = [], 0
    while start < len(data):
        (length,) = struct.unpack_from("!I", data, start)
        payloads.append(data[start + 4:start + 4 + length])
        start += 4 + length
    assert start == len(data)
    return payloads


class _ModelWorker:
    """Answers, in arrival order, the frames the core sends one worker."""

    def __init__(self, index: int, owner_of) -> None:
        self.index = index
        self.owner_of = owner_of
        #: Frames received and not yet fully answered: (digests, reply bytes left).
        self.unanswered: deque = deque()
        self.outbox = bytearray()

    def receive(self, payload: bytes) -> None:
        message = decode_payload(payload, JsonCodec)
        if message["t"] == "stats":
            reply = encode_frame({"t": "stats", "stats": {"worker": self.index}})
            digests = ()
        else:
            blob = message["d"]
            digests = [blob[i:i + 20] for i in range(0, len(blob), 20)]
            assert all(self.owner_of(digest) == self.index for digest in digests)
            sizes = message["s"]
            assert isinstance(sizes, int) or len(sizes) == len(digests)
            verdicts = [_verdict(digest) for digest in digests]
            mask = sum(bit << i for i, bit in enumerate(verdicts))
            reply = encode_verdict_frame(len(digests), verdicts.count(0), mask)
        self.unanswered.append([digests, len(reply)])
        self.outbox += reply

    def deliver(self, size: int) -> bytes:
        """Up to ``size`` reply bytes; frames whose last byte goes out are answered."""
        chunk = bytes(self.outbox[:size])
        del self.outbox[:size]
        left = len(chunk)
        while left and self.unanswered:
            head = self.unanswered[0]
            taken = min(left, head[1])
            head[1] -= taken
            left -= taken
            if not head[1]:
                self.unanswered.popleft()
        return chunk


@settings(max_examples=150, deadline=None)
@given(
    num_workers=st.integers(1, 4),
    batches=st.lists(
        st.tuples(
            st.lists(st.binary(min_size=8, max_size=8), min_size=1, max_size=12),
            st.booleans(),  # per-digest sizes instead of one scalar
        ),
        min_size=1, max_size=8,
    ),
    malformed=st.lists(st.sampled_from(range(len(_MALFORMED))), max_size=3),
    chunking=st.sampled_from(["one byte", "random", "whole stream"]),
    rng=st.randoms(use_true_random=False),
)
def test_every_batch_is_answered_once_and_merged_per_position(
        num_workers, batches, malformed, chunking, rng):
    node_ids = [f"node{i}" for i in range(num_workers)]
    core = GatewayCore(node_ids, max_queue=1_000, max_inflight=1_000, codec=JsonCodec)
    for link in core.workers:
        link.ready.set()
    partitioner = RangePartitioner(node_ids)
    owner_of = lambda digest: partitioner.owner_indexes(digest)[0]  # noqa: E731
    workers = [_ModelWorker(i, owner_of) for i in range(num_workers)]

    # The client stream: batches, malformed frames and pings, in a random order.
    messages, batch_of, expected_error = [], {}, {}
    serial = 0
    for number, (prefixes, sized) in enumerate(batches):
        digests = []
        for prefix in prefixes:
            digests.append(prefix + serial.to_bytes(12, "big"))
            serial += 1
        for digest in digests:
            batch_of[digest] = number
        sizes = [len(digest) + i for i, digest in enumerate(digests)] if sized else 4096
        messages.append({"t": "batch", "id": number, "d": b"".join(digests).hex(), "s": sizes})
    for offset, which in enumerate(malformed):
        fields, error = _MALFORMED[which]
        expected_error[100 + offset] = error
        messages.append({"t": "batch", "id": 100 + offset, **fields})
    messages.append({"t": "ping", "id": "p"})
    rng.shuffle(messages)
    stream = b"".join(encode_frame(message) for message in messages)
    if chunking == "one byte":
        cuts = list(range(1, len(stream)))
    elif chunking == "random":
        cuts = sorted(rng.sample(range(1, len(stream)), min(len(stream) - 1, rng.randint(0, 12))))
    else:
        cuts = []
    bounds = [0] + cuts + [len(stream)]
    chunks = deque(stream[a:b] for a, b in zip(bounds, bounds[1:]))

    client = object()
    replies, closes = [], []
    doomed = set()  # batches with a frame outstanding on a worker when it was lost
    controls = {}   # control request -> (its worker, the answers its callback got)
    losses = 0

    def route(out) -> None:
        for destination, frame in out:
            if destination is client:
                assert not closes, "nothing after the close"
                if frame is None:
                    closes.append(True)
                else:
                    replies.extend(JsonCodec.decode(payload) for payload in _frames(frame))
            else:
                assert frame is not None
                for payload in _frames(frame):
                    workers[destination].receive(payload)

    def lose(index: int) -> None:
        for digests, _left in workers[index].unanswered:
            doomed.update(batch_of[digest] for digest in digests)
        workers[index].unanswered.clear()
        workers[index].outbox.clear()
        route(core.on_worker_lost(index))

    while chunks or any(worker.outbox for worker in workers):
        actions = ["client"] * bool(chunks)
        actions += [("reply", w.index) for w in workers if w.outbox]
        if losses < 2:
            actions += [("lose", link.index) for link in core.workers if link.ready.is_set()]
        actions += [("revive", link.index) for link in core.workers if not link.ready.is_set()]
        if len(controls) < 2:
            actions += [("control", link.index) for link in core.workers if link.ready.is_set()]
        action = rng.choice(actions)
        if action == "client":
            route(core.on_client_bytes(client, chunks.popleft()))
        elif action[0] == "reply":
            worker = workers[action[1]]
            route(core.on_worker_bytes(worker.index, worker.deliver(rng.randint(1, 64))))
        elif action[0] == "lose":
            losses += 1
            lose(action[1])
        elif action[0] == "revive":
            core.workers[action[1]].ready.set()
        else:
            answers = []
            controls[len(controls)] = (action[1], answers)
            route(core.control(action[1], encode_frame({"t": "stats"}), answers.append))
    route(core.on_client_bytes(client, b""))  # EOF: close once everything is answered

    by_id = {}
    for reply in replies:
        assert reply["id"] not in by_id, f"two replies for {reply['id']!r}"
        by_id[reply["id"]] = reply
    assert set(by_id) == {message["id"] for message in messages}
    assert by_id["p"] == {"t": "pong", "id": "p"}
    for message_id, error in expected_error.items():
        assert by_id[message_id] == {"t": "reply", "id": message_id, "ok": False,
                                     "err": error, "retry": False}
    for number, (prefixes, _sized) in enumerate(batches):
        reply = by_id[number]
        if number in doomed:
            assert reply["err"] == "UNAVAILABLE" and reply["retry"] is True, reply
        elif not reply["ok"]:
            assert reply["err"] == "OVERLOADED", reply  # a touched worker was down
        if reply["ok"]:
            digests = [digest for digest, owner in sorted(batch_of.items(), key=_serial)
                       if owner == number]
            duplicates, flags = unpack_verdicts(reply["v"], reply["n"])
            assert flags == [bool(_verdict(digest)) for digest in digests]
            assert reply["n"] == len(prefixes) and reply["new"] == len(digests) - duplicates
    for index, answers in controls.values():
        assert answers in ([{"t": "stats", "stats": {"worker": index}}], [_UNAVAILABLE])
    assert closes == [True]
    assert core.inflight == 0 and not any(link.outstanding for link in core.workers)
    counters = core.telemetry.counters
    acked = [reply for reply in by_id.values() if reply.get("ok")]
    assert counters["acked_batches"] == len(acked) == core.batch_latency.count
    assert counters["protocol_errors"] == len(expected_error)


def _serial(item) -> int:
    return int.from_bytes(item[0][8:], "big")


def test_admission_bounds_outstanding_frames_and_inflight_batches():
    """``max_queue`` counts frames written and not yet answered; ``max_inflight`` batches."""
    core = GatewayCore(["node0"], max_queue=2, max_inflight=3, codec=JsonCodec)
    core.workers[0].ready.set()
    client = object()
    batch = lambda number: encode_frame(  # noqa: E731
        {"t": "batch", "id": number, "d": bytes(20).hex(), "s": 1})
    out = core.on_client_bytes(client, batch(1) + batch(2) + batch(3))
    assert [destination for destination, _ in out] == [0, 0, client]
    assert JsonCodec.decode(out[2][1][4:])["err"] == "OVERLOADED"
    assert len(core.workers[0].outstanding) == 2 and core.inflight == 2
    # One answer frees one outstanding slot.
    out = core.on_worker_bytes(0, encode_verdict_frame(1, 1, 0))
    assert [destination for destination, _ in out] == [client]
    assert [destination for destination, _ in core.on_client_bytes(client, batch(4))] == [0]
    # A worker that is down sheds every batch that touches it.
    core.on_worker_lost(0)
    assert core.inflight == 0
    (shed,) = core.on_client_bytes(client, batch(5))
    assert JsonCodec.decode(shed[1][4:]) == {"t": "reply", "ok": False, "err": "OVERLOADED",
                                             "retry": True, "id": 5}
    assert core.telemetry.counters["shed_batches"] == 2
    assert core.telemetry.counters["unavailable_batches"] == 2


def test_a_frame_over_the_cap_is_refused_from_its_header_alone():
    core = GatewayCore(["node0"], max_queue=2, max_inflight=3, codec=JsonCodec)
    client = object()
    assert core.on_client_bytes(client, struct.pack("!I", 2**32 - 1)) == [(client, None)]
    assert core.telemetry.counters["protocol_errors"] == 1
    assert core.on_client_bytes(client, b"more") == []  # nothing is read after the close


def test_eof_inside_a_frame_is_a_protocol_error_and_a_lost_client_gets_nothing():
    core = GatewayCore(["node0"], max_queue=4, max_inflight=4, codec=JsonCodec)
    core.workers[0].ready.set()
    half, gone = object(), object()
    assert core.on_client_bytes(half, encode_frame({"t": "ping"})[:7]) == []
    assert core.on_client_bytes(half, b"") == [(half, None)]
    assert core.telemetry.counters["protocol_errors"] == 1
    frame = encode_frame({"t": "batch", "id": 1, "d": bytes(20).hex(), "s": 1})
    assert [destination for destination, _ in core.on_client_bytes(gone, frame)] == [0]
    core.on_client_lost(gone)
    assert core.on_worker_bytes(0, encode_verdict_frame(1, 1, 0)) == []
    assert core.inflight == 0 and core.telemetry.counters["acked_batches"] == 1


def test_replies_are_matched_fifo_across_split_reply_frames():
    """A reply frame cut anywhere, control answers in between: FIFO still holds."""
    core = GatewayCore(["node0"], max_queue=8, max_inflight=8, codec=JsonCodec)
    core.workers[0].ready.set()
    client = object()
    answers = []
    core.on_client_bytes(client, encode_frame(
        {"t": "batch", "id": "a", "d": (bytes(19) + b"\x01").hex(), "s": 1}))
    core.control(0, encode_frame({"t": "stats"}), answers.append)
    core.on_client_bytes(client, encode_frame(
        {"t": "batch", "id": "b", "d": (bytes(19) + b"\x02").hex(), "s": 1}))
    stream = (encode_verdict_frame(1, 0, 1) + encode_frame({"t": "stats", "stats": {"x": 1}})
              + encode_verdict_frame(1, 1, 0))
    out = []
    for index in range(len(stream)):
        out += core.on_worker_bytes(0, stream[index:index + 1])
    replies = [JsonCodec.decode(frame[4:]) for _, frame in out]
    assert [(reply["id"], reply["v"], reply["new"]) for reply in replies] == [
        ("a", "1", 0), ("b", "0", 1)]
    assert answers == [{"t": "stats", "stats": {"x": 1}}]


def test_a_frame_that_raises_beyond_wire_error_keeps_the_batches_read_before_it():
    """``json.loads`` raises ``RecursionError`` on deep nesting.  The batch
    read in the same chunk still reaches its workers, so the FIFO match of
    every later batch, another client's included, stays aligned."""
    node_ids = ["node0", "node1"]
    core = GatewayCore(node_ids, max_queue=8, max_inflight=8, codec=JsonCodec)
    for link in core.workers:
        link.ready.set()
    owner_of = RangePartitioner(node_ids).owner_indexes
    first = bytes(19) + b"\x01"              # node0's
    second = b"\xff" * 19 + b"\x02"          # node1's
    assert owner_of(first + second) == b"\x00\x01"
    hostile, other = object(), object()
    nested = b"[" * 100_000
    out = core.on_client_bytes(hostile, encode_frame(
        {"t": "batch", "id": "kept", "d": (first + second).hex(), "s": 1})
        + struct.pack("!I", len(nested)) + nested)
    assert sorted(destination for destination, _ in out) == [0, 1]
    assert core.telemetry.counters["protocol_errors"] == 1
    out = core.on_client_bytes(other, encode_frame(
        {"t": "batch", "id": "later", "d": second.hex(), "s": 1}))
    assert [destination for destination, _ in out] == [1]
    # node0 says "duplicate" for its digest; node1 "new", then "duplicate".
    out = core.on_worker_bytes(0, encode_verdict_frame(1, 0, 1))
    out += core.on_worker_bytes(1, encode_verdict_frame(1, 1, 0) + encode_verdict_frame(1, 0, 1))
    replies = {JsonCodec.decode(frame[4:])["id"]: (destination, JsonCodec.decode(frame[4:]))
               for destination, frame in out if frame is not None}
    assert replies["kept"][0] is hostile and replies["kept"][1]["v"] == "1"
    assert replies["later"][0] is other and replies["later"][1]["v"] == "1"
    assert (hostile, None) in out  # the protocol error closes it once answered


class _OwingCore(GatewayCore):
    def _control(self, client, message):
        return None if message.get("t") == "stats" else super()._control(client, message)


def test_an_owed_control_reply_is_written_before_the_close_it_holds():
    core = _OwingCore(["node0"], max_queue=4, max_inflight=4, codec=JsonCodec)
    client, gone = object(), object()
    assert core.on_client_bytes(client, encode_frame({"t": "stats", "id": 7})) == []
    assert core.on_client_bytes(client, b"") == []  # EOF: the stats reply is still owed
    out = core.answer_control(client, {"t": "stats", "id": 7, "stats": {}})
    assert [destination for destination, _ in out] == [client, client]
    assert JsonCodec.decode(out[0][1][4:])["id"] == 7 and out[1][1] is None
    core.on_client_bytes(gone, encode_frame({"t": "stats"}))
    core.on_client_lost(gone)
    assert core.answer_control(gone, {"t": "stats"}) == []
