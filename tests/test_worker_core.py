"""The worker's socket-free core, and the whole live batch path without a socket.

:class:`WorkerCore` is fed bytes as a connection would deliver them and
returns the reply frames; nothing here starts a process or opens a socket.
The checks: the chunking of the stream never changes a reply byte; each
verdict frame agrees per position with the set model of one node
(``tests/oracles/set_model.py``); ``ping``, ``stats`` and ``shutdown`` are
answered, the last after its checkpoint; a frame that raises ends the
connection after the replies of the batches served before it -- also as a
property over random cuts of valid frames followed by one bad frame.  Then
:class:`GatewayCore` and one ``WorkerCore`` per node, over real nodes, with
random chunkings in both directions, answer every client batch as the set
model routed per node does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import struct
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.set_model import NodeModel

from repro.core.config import HashNodeConfig
from repro.core.hash_node import HybridHashNode
from repro.core.partition import RangePartitioner
from repro.serving import worker as worker_module
from repro.serving.gateway_core import GatewayCore
from repro.serving.wire import (
    JsonCodec,
    decode_payload,
    encode_batch_frame,
    encode_frame,
    unpack_verdicts,
)
from repro.serving.worker import WorkerCore, WorkerSpec

_NODE_CONFIG = {"ram_cache_entries": 4, "bloom_expected_items": 512, "ssd_buckets": 16}


def _node(node_id: str = "node0") -> HybridHashNode:
    return HybridHashNode(node_id, config=HashNodeConfig.from_dict(_NODE_CONFIG))


def _messages(stream: bytes) -> list:
    """The frames of a reply stream, decoded (verdict frames as dicts)."""
    messages, start = [], 0
    while start < len(stream):
        (length,) = struct.unpack_from("!I", stream, start)
        messages.append(decode_payload(stream[start + 4:start + 4 + length], JsonCodec))
        start += 4 + length
    assert start == len(stream)
    return messages


def _cut(stream: bytes, chunking: str, rng) -> list:
    """``stream`` in pieces: one byte each, a few random cuts, or whole."""
    if chunking == "one byte":
        cuts = list(range(1, len(stream)))
    elif chunking == "random":
        cuts = sorted(rng.sample(range(1, len(stream)), min(len(stream) - 1, rng.randint(0, 12))))
    else:
        cuts = []
    bounds = [0] + cuts + [len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def _feed(core: WorkerCore, chunks) -> bytes:
    """Every reply byte ``core`` returns for ``chunks``; nothing closes."""
    out = []
    for chunk in chunks:
        replies = core.on_bytes(chunk)
        assert None not in replies
        out.extend(replies)
    return b"".join(out)


#: Batches as ``(indexes into a digest pool, per-digest sizes?)``; shared
#: indexes make duplicates within and across batches.
_batches = st.lists(
    st.tuples(st.lists(st.integers(0, 23), min_size=1, max_size=12), st.booleans()),
    min_size=1, max_size=8,
)


def _pairs(pool, indexes, sized):
    return [(pool[i], 4096 + (i if sized else 0)) for i in indexes]


def _batch_frame(pairs, sized) -> bytes:
    blob = b"".join(digest for digest, _size in pairs)
    return encode_batch_frame(blob, [size for _d, size in pairs] if sized else 4096)


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(st.binary(min_size=20, max_size=20), min_size=24, max_size=24, unique=True),
    batches=_batches,
    pings=st.sets(st.integers(0, 8), max_size=3),
    rng=st.randoms(use_true_random=False),
)
def test_chunking_never_changes_a_reply_and_verdicts_follow_the_set_model(
        pool, batches, pings, rng):
    frames, model_replies = [], []
    model = NodeModel(_NODE_CONFIG["ram_cache_entries"])
    for number, (indexes, sized) in enumerate(batches):
        if number in pings:
            frames.append(encode_frame({"t": "ping"}))
            model_replies.append({"t": "pong"})
        pairs = _pairs(pool, indexes, sized)
        frames.append(_batch_frame(pairs, sized))
        tiers, new_pairs = model.serve(pairs)
        model_replies.append({"t": "reply", "ok": True, "n": len(pairs), "new": len(new_pairs),
                              "v": sum(bool(tier) << i for i, tier in enumerate(tiers))})
    stream = b"".join(frames)

    outputs = {}
    for chunking in ("one byte", "random", "whole stream"):
        node = _node()
        outputs[chunking] = _feed(WorkerCore(node, JsonCodec), _cut(stream, chunking, rng))
        for name, value in model.expected_counters().items():
            assert node.counters[name] == value, (chunking, name)
    assert outputs["one byte"] == outputs["random"] == outputs["whole stream"]
    assert _messages(outputs["whole stream"]) == model_replies


def test_ping_stats_and_shutdown_are_answered_and_shutdown_checkpoints_first(
        tmp_path, monkeypatch):
    spec = WorkerSpec("node0", _NODE_CONFIG, persistence_dir=str(tmp_path / "node0"))
    node = spec.build_node()
    core = WorkerCore(node, JsonCodec)
    digests = os.urandom(20 * 6)
    replies = core.on_bytes(encode_batch_frame(digests, 4096) + encode_frame({"t": "ping"})
                            + encode_frame({"t": "stats"}))
    verdicts, pong, stats = (decode_payload(frame[4:], JsonCodec) for frame in replies)
    assert verdicts == {"t": "reply", "ok": True, "v": 0, "n": 6, "new": 6}
    assert pong == {"t": "pong"}
    assert stats["t"] == "stats" and stats["stats"]["info"] == {"node_id": "node0"}
    assert stats["stats"]["counters"]["new_entries"] == 6
    assert stats["stats"]["gauges"]["persisted_records"] == 6
    assert stats["stats"]["histograms"]["serve_batch"]["count"] == 1

    # The checkpoint is taken before the acknowledgement is built, and a
    # frame after the shutdown is never served.
    order = []
    take_snapshot = node.persistence.take_snapshot
    monkeypatch.setattr(node.persistence, "take_snapshot",
                        lambda *args, **kwargs: order.append("snapshot")
                        or take_snapshot(*args, **kwargs))
    encode = worker_module.encode_frame
    monkeypatch.setattr(worker_module, "encode_frame",
                        lambda message, codec: order.append(message["t"]) or encode(message, codec))
    replies = core.on_bytes(encode_frame({"t": "shutdown", "id": 9})
                            + encode_batch_frame(os.urandom(20), 4096))
    assert order == ["snapshot", "reply"]
    assert len(replies) == 2 and replies[-1] is None
    assert decode_payload(replies[0][4:], JsonCodec) == {"t": "reply", "id": 9, "ok": True}
    assert node.counters["lookups"] == 6
    # The next start is warm with nothing to replay: the image covers the log.
    restarted = spec.build_node()
    restarted.persistence.close()
    recovery = restarted.last_recovery
    assert recovery.records == 6 and recovery.replayed == 0


_BAD_FRAMES = {
    "unknown type": encode_frame({"t": "launch"}),
    "malformed packed batch": struct.pack("!I", 8) + b"\x01" + bytes(7),
    "codec batch": encode_frame({"t": "batch", "d": "ab" * 20, "s": 4096}),
    "undecodable": struct.pack("!I", 1) + b"\xff",
    "oversized length prefix": struct.pack("!I", 0xFFFFFFFF),
}


@pytest.mark.parametrize("bad", sorted(_BAD_FRAMES))
def test_a_frame_that_raises_ends_the_connection_after_the_batches_before_it(bad, capsys):
    node = _node()
    core = WorkerCore(node, JsonCodec)
    first, second = os.urandom(20 * 3), os.urandom(20 * 2)
    replies = core.on_bytes(encode_batch_frame(first, 4096) + encode_batch_frame(second, 4096)
                            + _BAD_FRAMES[bad] + encode_batch_frame(os.urandom(20), 4096))
    assert len(replies) == 3 and replies[-1] is None
    assert [decode_payload(frame[4:], JsonCodec)["new"] for frame in replies[:2]] == [3, 2]
    assert node.counters["lookups"] == 5  # served and persisted before the bad frame
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [(record["event"], record["source"]) for record in events] == [
        ("protocol_error", "node0")]


def test_a_node_that_raises_ends_the_connection_with_its_traceback(capsys):
    node = _node()
    serve = node.serve_bucket_verdicts
    calls = []

    def failing(batch):
        calls.append(len(batch))
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return serve(batch)

    node.serve_bucket_verdicts = failing
    replies = WorkerCore(node, JsonCodec).on_bytes(
        encode_batch_frame(os.urandom(20 * 3), 4096) + encode_batch_frame(os.urandom(20), 4096)
        + encode_frame({"t": "ping"}))
    assert len(replies) == 2 and replies[-1] is None and calls == [3, 1]
    assert decode_payload(replies[0][4:], JsonCodec)["new"] == 3
    (record,) = map(json.loads, capsys.readouterr().err.splitlines())
    assert (record["event"], record["node"], record["error"]) == ("worker_failed", "node0", "OSError")
    assert "No space left on device" in record["traceback"]


def test_a_failed_background_checkpoint_fails_the_worker_after_the_replies_owed(
    tmp_path, monkeypatch, capsys
):
    from repro.storage import snapshot as snapshot_module

    def disk_full(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(snapshot_module.os, "fsync", disk_full)
    node = WorkerSpec("node0", _NODE_CONFIG, persistence_dir=str(tmp_path / "node0"),
                      snapshot_every=32).build_node()
    # The first batch is due: its image is captured and fails in the
    # background.  The second is not due; the third is, and its join raises.
    replies = WorkerCore(node, JsonCodec).on_bytes(
        encode_batch_frame(os.urandom(20 * 40), 4096) + encode_batch_frame(os.urandom(20 * 8), 4096)
        + encode_batch_frame(os.urandom(20 * 40), 4096) + encode_frame({"t": "ping"}))
    assert len(replies) == 3 and replies[-1] is None
    assert [decode_payload(frame[4:], JsonCodec)["new"] for frame in replies[:2]] == [40, 8]
    (record,) = map(json.loads, capsys.readouterr().err.splitlines())
    assert (record["event"], record["node"], record["error"]) == ("worker_failed", "node0", "OSError")
    assert "No space left on device" in record["traceback"]
    assert not os.path.exists(node.persistence.snapshot_path)
    node.persistence.close()


def test_eof_ends_the_connection_and_mid_frame_it_is_a_protocol_error(capsys):
    frame = encode_frame({"t": "ping"})
    core = WorkerCore(_node(), JsonCodec)
    assert core.on_bytes(frame) and core.on_bytes(b"") == [None]
    assert capsys.readouterr().err == ""
    core = WorkerCore(_node(), JsonCodec)
    assert core.on_bytes(frame[:-1]) == []
    assert core.on_bytes(b"") == [None]
    # A length prefix past ``MAX_FRAME_BYTES`` is refused before its payload.
    assert WorkerCore(_node(), JsonCodec).on_bytes(struct.pack("!I", 0xFFFFFFFF)) == [None]
    causes = [json.loads(line)["cause"] for line in capsys.readouterr().err.splitlines()]
    assert causes == ["connection closed mid-frame",
                      "frame of 4294967295 bytes exceeds MAX_FRAME_BYTES"]


#: The frames a well-behaved gateway sends: a batch ``(indexes, sized)``,
#: a ``ping`` or a ``stats`` request.
_valid_frames = st.lists(
    st.one_of(st.tuples(st.lists(st.integers(0, 23), min_size=1, max_size=12), st.booleans()),
              st.sampled_from(["ping", "stats"])),
    max_size=6,
)


def _bad_frame(kind: str, pool, rng) -> bytes:
    if kind == "oversized prefix":
        return struct.pack("!I", 0xFFFFFFFF)
    if kind == "unknown t":
        return encode_frame({"t": "launch"})
    if kind == "non-dict payload":
        return encode_frame([{"t": "ping"}])
    whole = _batch_frame(_pairs(pool, [0, 1, 2], False), False)  # "truncated at EOF"
    return whole[:rng.randint(1, len(whole) - 1)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    pool=st.lists(st.binary(min_size=20, max_size=20), min_size=24, max_size=24, unique=True),
    frames=_valid_frames,
    bad=st.sampled_from(["oversized prefix", "unknown t", "non-dict payload", "truncated at EOF"]),
    chunking=st.sampled_from(["one byte", "random", "whole stream"]),
    rng=st.randoms(use_true_random=False),
)
def test_valid_frames_then_a_bad_one_are_answered_in_order_then_closed_once(
        pool, frames, bad, chunking, rng):
    """Fed in random cuts, no exception escapes ``on_bytes``: the valid
    frames are answered in order (verdicts as the set model's), then one
    ``None`` closes the connection with one ``protocol_error`` event, and
    nothing follows it."""
    model = NodeModel(_NODE_CONFIG["ram_cache_entries"])
    stream, expected = [], []
    for frame in frames:
        if frame in ("ping", "stats"):
            stream.append(encode_frame({"t": frame}))
            expected.append({"t": "pong"} if frame == "ping" else "stats")
            continue
        indexes, sized = frame
        pairs = _pairs(pool, indexes, sized)
        stream.append(_batch_frame(pairs, sized))
        tiers, new_pairs = model.serve(pairs)
        expected.append({"t": "reply", "ok": True, "n": len(pairs), "new": len(new_pairs),
                         "v": sum(bool(tier) << i for i, tier in enumerate(tiers))})
    stream.append(_bad_frame(bad, pool, rng))

    node = _node()
    core = WorkerCore(node, JsonCodec)
    replies, closed_at_eof = [], False
    with contextlib.redirect_stderr(io.StringIO()) as err:
        for chunk in _cut(b"".join(stream), chunking, rng):
            replies += core.on_bytes(chunk)
            if None in replies:
                break
        else:
            closed_at_eof = True
            replies += core.on_bytes(b"")
    assert replies.index(None) == len(replies) - 1
    assert closed_at_eof == (bad == "truncated at EOF")
    answered = [decode_payload(frame[4:], JsonCodec) for frame in replies[:-1]]
    assert len(answered) == len(expected)
    for message, want in zip(answered, expected):
        if want == "stats":
            assert message["t"] == "stats" and message["stats"]["info"] == {"node_id": "node0"}
        else:
            assert message == want
    for name, value in model.expected_counters().items():
        assert node.counters[name] == value, name
    events = [json.loads(line) for line in err.getvalue().splitlines()]
    assert [(record["event"], record["source"]) for record in events] == [
        ("protocol_error", "node0")]


# ------------------------------------------------------------- composition
@settings(max_examples=60, deadline=None)
@given(
    num_workers=st.integers(1, 3),
    pool=st.lists(st.binary(min_size=20, max_size=20), min_size=24, max_size=24, unique=True),
    batches=_batches,
    chunking=st.sampled_from(["one byte", "random", "whole stream"]),
    rng=st.randoms(use_true_random=False),
)
def test_gateway_and_worker_cores_answer_as_the_set_model_routed_per_node(
        num_workers, pool, batches, chunking, rng):
    node_ids = [f"node{i}" for i in range(num_workers)]
    gateway = GatewayCore(node_ids, max_queue=1_000, max_inflight=1_000, codec=JsonCodec)
    for link in gateway.workers:
        link.ready.set()
    workers = [WorkerCore(_node(node_id), JsonCodec) for node_id in node_ids]
    inboxes = [bytearray() for _ in node_ids]   # gateway -> worker bytes not yet delivered
    outboxes = [bytearray() for _ in node_ids]  # worker -> gateway bytes not yet delivered

    # The model: one set model per node, fed each batch's digests routed to
    # it, in batch order (a worker serves its frames in arrival order).
    partitioner = RangePartitioner(node_ids)
    models = [NodeModel(_NODE_CONFIG["ram_cache_entries"]) for _ in node_ids]
    expected, frames = {}, []
    for number, (indexes, sized) in enumerate(batches):
        pairs = _pairs(pool, indexes, sized)
        owners = partitioner.owner_indexes(b"".join(digest for digest, _ in pairs))
        tiers = {}
        for index in set(owners):
            mine = [position for position, owner in enumerate(owners) if owner == index]
            node_tiers, _new = models[index].serve([pairs[position] for position in mine])
            tiers.update(zip(mine, node_tiers))
        verdicts = [bool(tiers[position]) for position in range(len(pairs))]
        expected[number] = (verdicts, verdicts.count(False))
        frames.append(encode_frame({
            "t": "batch", "id": number, "d": b"".join(digest for digest, _ in pairs).hex(),
            "s": [size for _, size in pairs] if sized else 4096}))
    chunks = deque(_cut(b"".join(frames), chunking, rng))

    client = object()
    replies = []

    def route(out) -> None:
        for destination, frame in out:
            assert frame is not None, "nothing is closed"
            if destination is client:
                replies.extend(_messages(frame))
            else:
                inboxes[destination] += frame

    while chunks or any(inboxes) or any(outboxes):
        actions = ["client"] * bool(chunks)
        actions += [("serve", i) for i, inbox in enumerate(inboxes) if inbox]
        actions += [("reply", i) for i, outbox in enumerate(outboxes) if outbox]
        action = rng.choice(actions)
        if action == "client":
            route(gateway.on_client_bytes(client, chunks.popleft()))
            continue
        kind, index = action
        box = inboxes[index] if kind == "serve" else outboxes[index]
        size = 1 if chunking == "one byte" else rng.randint(1, 64)
        if chunking == "whole stream":
            size = len(box)
        data = bytes(box[:size])
        del box[:size]
        if kind == "serve":
            served = workers[index].on_bytes(data)
            assert None not in served
            outboxes[index] += b"".join(served)
        else:
            route(gateway.on_worker_bytes(index, data))

    assert sorted(reply["id"] for reply in replies) == sorted(expected)
    for reply in replies:
        assert reply["ok"], reply
        verdicts, new = expected[reply["id"]]
        assert unpack_verdicts(reply["v"], reply["n"]) == (len(verdicts) - new, verdicts)
        assert reply["n"] == len(verdicts) and reply["new"] == new
    assert gateway.inflight == 0
    for model, worker in zip(models, workers):
        assert dict(worker.node.store.items()) == model.stored
