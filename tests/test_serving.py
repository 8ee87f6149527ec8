"""Serving stack tests: wire protocol, gateway lifecycle, fault injection.

The end-to-end tests boot a real :class:`~repro.serving.gateway.ServiceGateway`
(worker processes, TCP sockets, the lot) on an ephemeral localhost port, so
they are slower than the in-process suite -- node counts and fingerprint
volumes are kept deliberately small.  The invariants they pin are the ones
the ISSUE acceptance criteria name: a taken port fails loudly, overload
sheds instead of queueing without bound, a killed worker respawns with zero
lost acknowledged fingerprints, and graceful shutdown drains in-flight
batches and leaves warm-startable state behind.
"""

from __future__ import annotations

import asyncio
import functools
import importlib.util
import json
import logging
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import KEY_SPACE_SIZE, RangePartitioner, key_of_digest
from repro.serving.gateway import ServeConfig, ServiceGateway, ServingError
from repro.serving.loadgen import LoadtestConfig, run_loadtest_async
from repro.serving.wire import (
    MAX_FRAME_BYTES,
    JsonCodec,
    WireError,
    decode_payload,
    encode_batch_frame,
    encode_frame,
    encode_verdict_frame,
    frame_payloads,
    get_codec,
    mask_bits,
    pack_verdicts,
    read_frame,
    unpack_verdicts,
    verdict_mask,
)


# --------------------------------------------------------------------- wire
def test_frame_roundtrip_through_frame_payloads():
    message = {"t": "batch", "id": 7, "d": "ab" * 40, "s": 8192}
    frame = encode_frame(message, JsonCodec)
    pending = bytearray()
    # Inside the length prefix, then inside the payload: nothing is whole yet.
    assert frame_payloads(pending, frame[:3]) == [] and pending == frame[:3]
    assert frame_payloads(pending, frame[3:9]) == [] and pending == frame[:9]
    payloads = frame_payloads(pending, frame[9:] + frame)
    assert [decode_payload(payload, JsonCodec) for payload in payloads] == [message] * 2
    assert not pending  # nothing owed: the stream may end here


def test_an_oversized_prefix_raises_after_the_whole_frames_ahead_of_it():
    ping = encode_frame({"t": "ping"}, JsonCodec)
    oversized = struct.pack("!I", MAX_FRAME_BYTES + 1)
    pending = bytearray()
    payloads = iter(frame_payloads(pending, ping + ping + oversized))
    assert [decode_payload(next(payloads), JsonCodec) for _ in range(2)] == [{"t": "ping"}] * 2
    with pytest.raises(WireError, match="exceeds MAX_FRAME_BYTES"):
        next(payloads)
    assert pending == oversized  # the pings are consumed; the bad prefix is left


def test_encode_frame_rejects_oversized():
    huge = {"d": "a" * (MAX_FRAME_BYTES + 1)}
    with pytest.raises(WireError):
        encode_frame(huge, JsonCodec)


def test_codec_resolution():
    assert get_codec("json") is JsonCodec
    assert get_codec("auto") is not None
    with pytest.raises(WireError):
        get_codec("carrier-pigeon")


def test_json_codec_rejects_non_dict():
    with pytest.raises(WireError):
        JsonCodec.decode(b"[1, 2, 3]")
    with pytest.raises(WireError):
        JsonCodec.decode(b"not json at all")


def test_verdict_mask_roundtrip():
    flags = [True, False, False, True, True, False, True, False, True]
    mask = pack_verdicts(flags)
    duplicates, unpacked = unpack_verdicts(mask, len(flags))
    assert unpacked == flags
    assert duplicates == sum(flags)
    assert unpack_verdicts(pack_verdicts([]), 0) == (0, [])
    # An all-false mask encodes as "0" and must round-trip to all-false.
    assert unpack_verdicts(pack_verdicts([False] * 4), 4) == (0, [False] * 4)


def _pack_oracle(flags):
    """The per-bit loop the C-level mask codec replaced (kept as the oracle)."""
    mask = 0
    for index, flag in enumerate(flags):
        if flag:
            mask |= 1 << index
    return mask


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 256, 4099])
def test_mask_codec_matches_per_bit_oracle(size):
    rng = random.Random(size)
    for flags in (
        [rng.random() < 0.5 for _ in range(size)],
        [True] * size,
        [False] * size,
        [False] * max(size - 1, 0) + [True] * min(size, 1),  # only the top bit
    ):
        mask = _pack_oracle(flags)
        assert verdict_mask(flags) == mask
        assert pack_verdicts(flags) == format(mask, "x")
        assert mask_bits(mask, size) == "".join("1" if flag else "0" for flag in flags)
        assert unpack_verdicts(format(mask, "x"), size) == (sum(flags), flags)
    # A mask wider than the batch is truncated to its low ``size`` bits.
    wide = (1 << (size + 3)) - 1
    assert unpack_verdicts(format(wide, "x"), size) == (size, [True] * size)


# ------------------------------------------------------------- packed frames
def _payload(frame: bytes) -> bytes:
    (length,) = struct.unpack("!I", frame[:4])
    assert length == len(frame) - 4
    return frame[4:]


def test_packed_frames_round_trip():
    blob = os.urandom(20 * 5)
    assert decode_payload(_payload(encode_batch_frame(blob, 8192))) == {
        "t": "batch", "d": blob, "s": 8192}
    sizes = [0, 1, 4096, 65536, 2**32 - 1]
    assert decode_payload(_payload(encode_batch_frame(blob, sizes))) == {
        "t": "batch", "d": blob, "s": tuple(sizes)}
    assert decode_payload(_payload(encode_batch_frame(b"", 0))) == {
        "t": "batch", "d": b"", "s": 0}
    for count, new, mask in [(0, 0, 0), (1, 1, 0), (9, 3, 0b100111011), (256, 0, (1 << 256) - 1)]:
        assert decode_payload(_payload(encode_verdict_frame(count, new, mask))) == {
            "t": "reply", "ok": True, "v": mask, "n": count, "new": new}
    # Chunk sizes are u32 on the packed hop; anything else fails to encode.
    for bad in (-1, 2**32, [1, 2, 3, 4, 2**32], [1, 2, 3, 4, 1.5], [1, 2, 3, 4, "x"]):
        with pytest.raises(struct.error):
            encode_batch_frame(blob, bad)


@pytest.mark.parametrize("payload", [
    b"\x01",                                   # truncated header
    b"\x01\x00\x00",                           # truncated chunk size
    b"\x01" + bytes(4) + bytes(19),            # body not a multiple of 20
    b"\x01" + bytes(4) + bytes(41),
    b"\x02" + bytes(23),                       # sized body not a multiple of 24
    b"\x02" + bytes(49),
    b"\x03",                                   # truncated verdict header
    b"\x03" + bytes(7),
    b"\x03" + struct.pack("!II", 9, 0) + b"\x00",          # mask shorter than ceil(9/8)
    b"\x03" + struct.pack("!II", 8, 0) + b"\x00\x00",      # mask longer than ceil(8/8)
    b"\x03" + struct.pack("!II", 0, 0) + b"\x00",
    b"\x03" + struct.pack("!II", 8, 9) + b"\x00",          # new > count
    b"\x03" + struct.pack("!II", 3, 0) + b"\x08",          # a bit beyond count
    b"\x04" + bytes(24),                       # unknown tag: not a codec dict either
    b"",
])
def test_malformed_packed_payloads_raise_wire_error(payload):
    with pytest.raises(WireError):
        decode_payload(payload)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([b"\x01", b"\x02", b"\x03"]), st.binary(max_size=120))
def test_packed_payload_fuzz_never_crashes(tag, body):
    try:
        message = decode_payload(tag + body)
    except WireError:
        return
    if message["t"] == "batch":
        assert len(message["d"]) % 20 == 0
        sizes = message["s"]
        assert isinstance(sizes, int) or len(sizes) == len(message["d"]) // 20
    else:
        assert message["new"] <= message["n"] and message["v"] < 1 << message["n"]


def test_mixed_packed_and_codec_frames_on_one_connection():
    blob = os.urandom(40)
    frames = [
        encode_batch_frame(blob, 4096),
        encode_frame({"t": "stats"}),
        encode_verdict_frame(2, 1, 0b10),
        encode_batch_frame(blob, [1, 2]),
        encode_frame({"t": "shutdown"}),
    ]
    expected = [
        {"t": "batch", "d": blob, "s": 4096},
        {"t": "stats"},
        {"t": "reply", "ok": True, "v": 2, "n": 2, "new": 1},
        {"t": "batch", "d": blob, "s": (1, 2)},
        {"t": "shutdown"},
    ]
    pending = bytearray()
    payloads = frame_payloads(pending, b"".join(frames))
    # ``bytes``, as the worker converts: the digests then compare as bytes.
    assert [decode_payload(bytes(payload), JsonCodec) for payload in payloads] == expected
    assert not pending

    async def _stream():
        reader = asyncio.StreamReader()
        reader.feed_data(b"".join(frames))
        reader.feed_eof()
        return [await read_frame(reader, JsonCodec) for _ in range(len(frames) + 1)]

    assert asyncio.run(_stream()) == expected + [None]


def test_worker_refuses_a_codec_batch():
    from repro.core.config import HashNodeConfig
    from repro.core.hash_node import HybridHashNode
    from repro.serving.worker import WorkerCore

    node = HybridHashNode("w", config=HashNodeConfig(bloom_expected_items=512, ssd_buckets=16))
    replies = WorkerCore(node, JsonCodec).on_bytes(encode_batch_frame(b"k" * 20, 1))
    assert [decode_payload(_payload(frame)) for frame in replies] == [
        {"t": "reply", "ok": True, "v": 0, "n": 1, "new": 1}]
    # The same digest as a codec batch: refused, and the connection ends.
    codec_batch = encode_frame({"t": "batch", "id": 1, "d": "6b" * 20, "s": 4096})
    assert WorkerCore(node, JsonCodec).on_bytes(codec_batch) == [None]
    assert node.counters["lookups"] == 1


# ------------------------------------------------------------------- routing
@functools.lru_cache(maxsize=None)
def _gateway(num_nodes: int) -> ServiceGateway:
    """An unstarted gateway: routing tables only, no processes or sockets."""
    async def _build():  # asyncio primitives want a loop on older Pythons
        return ServiceGateway(ServeConfig(port=0, num_nodes=num_nodes))

    return asyncio.run(_build())


def _boundary_digests(num_nodes: int):
    """Digests one below, at and one above every range boundary."""
    width = KEY_SPACE_SIZE // num_nodes
    keys = {0, KEY_SPACE_SIZE - 1}
    for index in range(1, num_nodes + 1):
        keys.update(key for key in (index * width - 1, index * width, index * width + 1)
                    if 0 <= key < KEY_SPACE_SIZE)
    return [key.to_bytes(8, "big") + bytes(12) for key in sorted(keys)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.lists(st.binary(min_size=20, max_size=20), max_size=64),
       st.randoms(use_true_random=False))
def test_gateway_owner_bytes_match_the_range_partitioner(num_nodes, digests, rng):
    gateway = _gateway(num_nodes)
    digests = digests + _boundary_digests(num_nodes)
    rng.shuffle(digests)
    partitioner = RangePartitioner([gateway.config.node_id(i) for i in range(num_nodes)])
    expected = [
        int(partitioner.owners_by_key(key_of_digest(digest), 1)[0][len("node"):])
        for digest in digests
    ]
    assert list(gateway._partitioner.owner_indexes(b"".join(digests))) == expected


def test_ambiguous_prefixes_exist_where_expected():
    # 3, 5, 6, 7 and 9 nodes cut first-byte prefixes; powers of two do not.
    for num_nodes in range(1, 10):
        partitioner = _gateway(num_nodes)._partitioner
        partitioner.owner_indexes(b"")
        ambiguous = partitioner._owner_bytes.count(0xFF)
        assert ambiguous <= num_nodes - 1
        assert (ambiguous > 0) == (num_nodes in (3, 5, 6, 7, 9))


def test_num_nodes_must_fit_one_owner_byte():
    with pytest.raises(ValueError):
        ServeConfig(num_nodes=0)
    with pytest.raises(ValueError):
        ServeConfig(num_nodes=255)
    assert ServeConfig(num_nodes=254).num_nodes == 254


# ------------------------------------------------------------ gateway lifecycle
def _serve_config(tmp_path=None, **overrides) -> ServeConfig:
    defaults = dict(
        port=0,
        num_nodes=2,
        node_config={"bloom_expected_items": 50_000},
        data_dir=str(tmp_path) if tmp_path is not None else None,
        snapshot_every=1_000,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _load_config(port: int, **overrides) -> LoadtestConfig:
    defaults = dict(
        port=port,
        clients=4,
        pipeline=2,
        batch_size=128,
        fingerprints=4_000,
        seed=5,
    )
    defaults.update(overrides)
    return LoadtestConfig(**defaults)


def test_port_in_use_raises_serving_error():
    taken = socket.socket()
    taken.bind(("127.0.0.1", 0))
    taken.listen(1)
    port = taken.getsockname()[1]

    async def _go():
        gateway = ServiceGateway(_serve_config(num_nodes=1, port=port))
        with pytest.raises(ServingError, match="cannot listen"):
            await gateway.start()

    try:
        asyncio.run(_go())
    finally:
        taken.close()


def test_end_to_end_loadtest_zero_lost_acks():
    async def _go():
        gateway = ServiceGateway(_serve_config())
        await gateway.start()
        try:
            report = await run_loadtest_async(_load_config(gateway.port))
            stats = gateway.stats()
        finally:
            await gateway.close()
        return report, stats

    report, stats = asyncio.run(_go())
    assert report.acked_fingerprints == report.offered_fingerprints == 4_000
    assert report.failed_batches == 0
    assert report.audited and report.lost_acknowledged == 0
    # Duplicate structure survives the wire: new + duplicates == acked, and
    # the gateway's ledger agrees with the clients'.
    assert report.new_fingerprints + report.duplicate_fingerprints == 4_000
    assert 0 < report.new_fingerprints < 4_000
    assert stats["new_fingerprints"] >= report.new_fingerprints
    assert report.latency_us.get("p99", 0.0) > 0.0


def test_worker_kill_respawns_with_zero_lost_acks(tmp_path):
    async def _go():
        gateway = ServiceGateway(_serve_config(tmp_path, max_queue=8, max_inflight=64))
        await gateway.start()
        try:
            report = await run_loadtest_async(_load_config(
                gateway.port,
                fingerprints=12_000,
                kill_node="node1",
                kill_after_fraction=0.25,
            ))
            stats = gateway.stats()
        finally:
            await gateway.close()
        return report, stats

    report, stats = asyncio.run(_go())
    assert report.kills_sent == 1
    assert report.worker_restarts >= 1
    # The respawned worker says what its recovery did; the other never recovered.
    survivor, respawned = stats["workers"]
    assert survivor["recovery"] is None
    assert set(respawned["recovery"]) == {"records", "replayed", "truncated_bytes", "recovery_ms"}
    assert respawned["recovery"]["records"] > 0 and respawned["recovery"]["recovery_ms"] > 0
    assert respawned["recovery"]["truncated_bytes"] == 0
    # The contract under fire: a fingerprint the service acknowledged is
    # still a duplicate on re-lookup after its shard was SIGKILLed.
    assert report.audited and report.lost_acknowledged == 0
    assert report.acked_fingerprints == report.offered_fingerprints


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.parametrize("hung", [False, True], ids=["exits", "hung"])
def test_a_dropped_worker_is_gone_before_its_successor_serves_its_shard(tmp_path, capfd, hung):
    """The gateway drops a worker's connection on garbage and spawns a
    successor on the same directory; the dropped process must not live on
    beside it with the shard's log open, nor outlive ``close()``.  It exits
    without a traceback (its bloom bits in shared memory included), and one
    that cannot exit (stopped) is killed before the successor starts."""
    async def _go():
        gateway = ServiceGateway(_serve_config(tmp_path, shared_bloom=True))
        await gateway.start()
        try:
            worker = gateway.workers[0]
            dropped = worker.process
            if hung:
                os.kill(dropped.pid, signal.SIGSTOP)
            # A frame no codec decodes: the core closes the worker's connection.
            gateway._write(gateway.on_worker_bytes(0, struct.pack("!I", 1) + b"\xff"))
            for _ in range(3_000):
                if worker.process is not dropped and worker.ready.is_set():
                    break
                await asyncio.sleep(0.01)
            assert worker.restarts == 1 and worker.ready.is_set()
            alive_beside_successor = dropped.is_alive()
        finally:
            await gateway.close()
        return dropped, alive_beside_successor

    dropped, alive_beside_successor = asyncio.run(_go())
    try:
        assert not alive_beside_successor
        assert not dropped.is_alive()
        assert dropped.exitcode == (-signal.SIGKILL if hung else 0)
    finally:
        dropped.kill()
    err = capfd.readouterr().err
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_no_worker_outlives_a_sigkilled_gateway(tmp_path):
    log = tmp_path / "serve.log"
    with open(log, "w") as output:
        gateway = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--nodes", "2", "--port", "0",
             "--data-dir", str(tmp_path / "data"), "--report-interval", "0"],
            stdout=output, stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    pids = []
    try:
        deadline = time.monotonic() + 60
        while "listening on" not in log.read_text() and time.monotonic() < deadline:
            assert gateway.poll() is None, log.read_text()
            time.sleep(0.05)
        pids = [record["pid"] for record in map(json.loads, (
            line for line in log.read_text().splitlines() if line.startswith("{")))
            if record["event"] == "worker_ready"]
        assert len(pids) == 2 and all(map(_running, pids)), log.read_text()
        gateway.kill()
        gateway.wait()
        deadline = time.monotonic() + 5
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)], "workers outlived their gateway"
    finally:
        if gateway.poll() is None:
            gateway.kill()
            gateway.wait()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


_START_STAGES = ("start_ms", "build_ms", "ready_ms")


def _check_start(start) -> None:
    assert set(start) == {*_START_STAGES, "spawn_ms"}, start
    assert all(value >= 0 for value in start.values()), start
    assert abs(sum(start[stage] for stage in _START_STAGES) - start["spawn_ms"]) <= 1.0, start


def test_worker_start_up_is_attributed_stage_by_stage(tmp_path, capsys):
    """Every spawn -- the first and the respawn after a kill -- is split into
    interpreter + imports, node build and connect, in the ``worker_ready``
    event and in ``/stats``, and the rows sum to the whole spawn."""
    digests = "".join(f"{i << 154:040x}" for i in range(64))  # both shards

    async def _go():
        gateway = ServiceGateway(_serve_config(tmp_path), verbose=True)
        await gateway.start()
        try:
            first = json.loads((await _http_get(gateway.port, "/stats"))[1])
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            for message in ({"t": "batch", "id": 1, "d": digests, "s": 4096},
                            {"t": "kill_worker", "id": 2, "node": "node1"}):
                writer.write(encode_frame(message))
                await writer.drain()
                assert (await asyncio.wait_for(read_frame(reader), timeout=10.0))["ok"]
            writer.close()
            respawned = gateway.workers[1]
            for _ in range(3_000):
                if respawned.restarts and respawned.ready.is_set():
                    break
                await asyncio.sleep(0.01)
            after = json.loads((await _http_get(gateway.port, "/stats"))[1])
        finally:
            await gateway.close()
        return first, after

    first, after = asyncio.run(_go())
    ready = [record for record in map(json.loads, capsys.readouterr().err.splitlines())
             if record["event"] == "worker_ready"]
    spawns = [(record["node"], record["warm"]) for record in ready]
    assert sorted(spawns[:2]) == [("node0", False), ("node1", False)]
    assert spawns[2:] == [("node1", True)]
    for record in ready:
        _check_start({key: record[key] for key in (*_START_STAGES, "spawn_ms")})
    for row in first["workers"]:
        _check_start(row["start"])
    survivor, respawned = after["workers"]
    assert survivor["start"] == first["workers"][0]["start"]
    assert respawned["restarts"] == 1 and respawned["start"] != first["workers"][1]["start"]
    _check_start(respawned["start"])
    assert respawned["start"] == {key: ready[-1][key] for key in respawned["start"]}
    # The warm respawn's recovery is one part of building its node.
    assert 0 < respawned["recovery"]["recovery_ms"] <= respawned["start"]["build_ms"]


def test_shed_on_overload_replies_overloaded():
    async def _go():
        gateway = ServiceGateway(_serve_config(max_queue=1, max_inflight=2))
        await gateway.start()
        try:
            report = await run_loadtest_async(_load_config(
                gateway.port,
                clients=8,
                pipeline=8,
                fingerprints=8_000,
                burst_batches=32,
                audit=False,
            ))
            stats = gateway.stats()
        finally:
            await gateway.close()
        return report, stats

    report, stats = asyncio.run(_go())
    # Admission control must actually reject under this much concurrency
    # against queues this small -- and the gateway's ledger must agree.
    assert report.sheds > 0
    assert stats["shed_batches"] > 0
    assert 0.0 < stats["shed_rate"] <= 1.0
    # Every offered batch is accounted for: acked or (after bounded
    # retries / the no-retry burst) failed -- none vanish into the queue.
    assert report.acked_batches + report.failed_batches == report.offered_batches


def test_worker_stats_report_log_size_and_last_checkpoint(tmp_path):
    from repro.serving.worker import WorkerCore, WorkerSpec

    spec = WorkerSpec("node0", {"bloom_expected_items": 4_096, "ssd_buckets": 256},
                      persistence_dir=str(tmp_path / "node0"), snapshot_every=32)
    node = spec.build_node()
    core = WorkerCore(node, JsonCodec)
    # What the gateway sends: two batches, then a stats frame, then EOF.
    replies = core.on_bytes(
        encode_batch_frame(os.urandom(20 * 40), 4096)
        + encode_batch_frame(os.urandom(20 * 8), 4096)
        + encode_frame({"t": "stats"}))
    assert core.on_bytes(b"") == [None]
    messages = [decode_payload(_payload(frame)) for frame in replies]
    assert [message["new"] for message in messages[:2]] == [40, 8]
    stats = messages[2]["stats"]
    gauges = stats["gauges"]
    assert gauges["persisted_records"] == 48 and gauges["snapshots_taken"] == 1
    assert gauges["entries"] == gauges["ram_cached"] == 48
    assert gauges["log_bytes"] == os.path.getsize(tmp_path / "node0" / "containers.log")
    assert gauges["last_snapshot_ms"] > 0
    assert stats["info"] == {"node_id": "node0"}
    assert stats["counters"]["lookups"] == stats["counters"]["new_entries"] == 48
    # One *measured* duration per batch; the per-key modelled service time
    # the worker used to publish (``modelled_service_us``) is gone, and
    # the node's recorder is never fed on this path.
    served = stats["histograms"]["serve_batch"]
    assert served["count"] == 2 == sum(served["buckets"].values())
    assert 0 < served["sum_ns"] < 10**9 and served["us"]["p50"] > 0
    assert "modelled_service_us" not in json.dumps(stats)
    assert node.lookup_latency.count == 0
    assert not any(key.startswith("recovery") for key in gauges)
    # A later connection shuts the node down (the checkpoint the restart loads).
    assert WorkerCore(node, JsonCodec).on_bytes(encode_frame({"t": "shutdown"}))[-1] is None
    # A second start is warm and its stats say what the recovery replayed.
    (reply,) = WorkerCore(spec.build_node(), JsonCodec).on_bytes(encode_frame({"t": "stats"}))
    gauges = decode_payload(_payload(reply))["stats"]["gauges"]
    assert (gauges["recovery_records"], gauges["recovery_replayed"],
            gauges["recovery_truncated_bytes"]) == (48, 0, 0)
    assert gauges["recovery_ms"] > 0


def test_graceful_drain_completes_inflight_and_leaves_warm_state(tmp_path):
    # Spread the digests across the whole keyspace (routing shards on the
    # top 64 bits) so *both* workers persist entries and warm-start.
    digests = "".join(f"{i << 154:040x}" for i in range(64))

    async def _go():
        gateway = ServiceGateway(_serve_config(tmp_path))
        await gateway.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
        writer.write(encode_frame({"t": "batch", "id": 1, "d": digests, "s": 4096}))
        await writer.drain()
        # Wait for admission (closing the door *before* the frame is read
        # would legitimately answer SHUTTING_DOWN), then drain: the admitted
        # batch must be answered before the door shuts.
        while not (gateway.inflight or gateway.telemetry.counters["acked_batches"]):
            await asyncio.sleep(0.001)
        close_task = asyncio.ensure_future(gateway.close())
        from repro.serving.wire import read_frame

        reply = await asyncio.wait_for(read_frame(reader), timeout=10.0)
        await close_task
        writer.close()
        assert reply is not None and reply["ok"], reply
        assert reply["n"] == 64

        # The shutdown handshake snapshots every shard: a second fleet over
        # the same data_dir warm-starts and still knows the fingerprints.
        gateway2 = ServiceGateway(_serve_config(tmp_path))
        await gateway2.start()
        try:
            reader2, writer2 = await asyncio.open_connection("127.0.0.1", gateway2.port)
            writer2.write(encode_frame({"t": "batch", "id": 2, "d": digests, "s": 4096}))
            await writer2.drain()
            reply2 = await asyncio.wait_for(read_frame(reader2), timeout=10.0)
            writer2.close()
            warm = sum(worker.warm_starts for worker in gateway2.workers)
        finally:
            await gateway2.close()
        assert reply2 is not None and reply2["ok"], reply2
        duplicates, _ = unpack_verdicts(reply2["v"], reply2["n"])
        assert duplicates == 64  # every previously acked fp is a duplicate
        assert warm == 2

    asyncio.run(_go())


async def _http_get(port: int, path: str):
    """``(status line, body)`` of one ``GET`` against the gateway's port."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(-1), timeout=10.0)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0], body


def test_stats_http_endpoint():
    async def _go():
        gateway = ServiceGateway(_serve_config(num_nodes=1))
        await gateway.start()
        try:
            status, body = await _http_get(gateway.port, "/stats")
            assert b"200" in status
            stats = json.loads(body)
            assert stats["nodes"] == 1
            assert stats["workers"][0]["up"] is True
            not_found, _ = await _http_get(gateway.port, "/nope")
            assert b"404" in not_found
        finally:
            await gateway.close()

    asyncio.run(_go())


def _load_check_metrics():
    path = Path(__file__).resolve().parents[1] / "tools" / "check_metrics.py"
    spec = importlib.util.spec_from_file_location("check_metrics", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _merged(snapshots):
    """Index-wise sums of histogram snapshots, written out by hand."""
    buckets = {}
    for snapshot in snapshots:
        for index, seen in snapshot["buckets"].items():
            buckets[index] = buckets.get(index, 0) + seen
    return (buckets, sum(s["count"] for s in snapshots), sum(s["sum_ns"] for s in snapshots))


def test_stats_and_metrics_carry_each_workers_registry_and_their_exact_merge(tmp_path):
    """What a running system can be asked: ``node_id``, tier counters and a
    measured serve histogram per worker, merged exactly into the fleet view --
    over the ``stats`` frame, ``GET /stats`` and ``GET /metrics`` alike."""
    # Spread over the whole key space: every batch is half node0's, half node1's.
    digests = ["".join(f"{(i << 154) + b:040x}" for i in range(64)) for b in range(6)]

    async def _go():
        gateway = ServiceGateway(_serve_config(tmp_path))
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)

            async def _ask(message):
                writer.write(encode_frame(message))
                await writer.drain()
                return await asyncio.wait_for(read_frame(reader), timeout=10.0)

            for number, blob in enumerate(digests):
                assert (await _ask({"t": "batch", "id": number, "d": blob, "s": 4096}))["ok"]
            framed = (await _ask({"t": "stats", "id": "s"}))["stats"]
            status, body = await _http_get(gateway.port, "/stats")
            assert b"200" in status
            status, metrics = await _http_get(gateway.port, "/metrics")
            assert b"200" in status

            assert (await _ask({"t": "kill_worker", "id": "k", "node": "node1"}))["ok"]
            for _ in range(2_000):  # until the respawned shard answers again
                if (await _ask({"t": "batch", "id": "r", "d": digests[0], "s": 4096}))["ok"]:
                    break
                await asyncio.sleep(0.01)
            after_kill = (await _ask({"t": "stats", "id": "s2"}))["stats"]
            writer.close()
            return framed, json.loads(body), metrics.decode(), after_kill
        finally:
            await gateway.close()

    framed, over_http, metrics, after_kill = asyncio.run(_go())
    for stats in (framed, over_http):
        served = [row["telemetry"]["histograms"]["serve_batch"] for row in stats["workers"]]
        for row in stats["workers"]:
            telemetry = row["telemetry"]
            assert telemetry["info"] == {"node_id": row["node_id"]}
            assert telemetry["counters"]["lookups"] == telemetry["counters"]["new_entries"] == 192
            assert telemetry["gauges"]["entries"] == 192
        # One observation per sub-batch sent, and the fleet is the index-wise sum.
        assert [s["count"] for s in served] == [row["sent"] for row in stats["workers"]] == [6, 6]
        fleet = stats["fleet"]["histograms"]["serve_batch"]
        assert (fleet["buckets"], fleet["count"], fleet["sum_ns"]) == _merged(served)
        assert fleet["count"] == 12 and all(s["sum_ns"] > 0 for s in served)
        assert stats["fleet"]["counters"]["lookups"] == 384
        assert stats["fleet"]["gauges"]["entries"] == 384
        assert stats["batch_latency_us"]["count"] == stats["acked_batches"] == 6
        assert 0 < stats["batch_latency_us"]["p50"] <= stats["batch_latency_us"]["p99"]

    assert _load_check_metrics().check(metrics) == []
    for needle in ('shhc_worker_info{node="node0",node_id="node0"} 1',
                   'shhc_worker_serve_batch_seconds_count{node="node1"} 6',
                   "shhc_fleet_serve_batch_seconds_count 12",
                   "shhc_fleet_lookups_total 384",
                   "shhc_gateway_acked_batches_total 6",
                   'shhc_gateway_worker_restarts_total{node="node1"} 0',
                   "# TYPE shhc_gateway_batch_latency_seconds histogram"):
        assert needle in metrics, needle

    # A respawned worker says what its recovery replayed and counts from zero
    # again, so a fleet counter can fall; ``restarts`` is how a reader knows.
    survivor, respawned = after_kill["workers"]
    assert (survivor["restarts"], respawned["restarts"]) == (0, 1)
    assert survivor["telemetry"]["counters"]["lookups"] > 192
    assert "recovery_records" not in survivor["telemetry"]["gauges"]
    gauges = respawned["telemetry"]["gauges"]
    assert gauges["recovery_records"] == gauges["entries"] == 192 and gauges["recovery_ms"] > 0
    assert 0 < respawned["telemetry"]["counters"]["lookups"] < 192
    assert respawned["telemetry"]["histograms"]["serve_batch"]["count"] < 6
    assert after_kill["fleet"]["counters"]["new_entries"] == 192 < 384


def test_a_worker_that_is_down_reports_null_and_the_fleet_is_the_rest():
    async def _go():
        gateway = ServiceGateway(_serve_config())
        await gateway.start()
        try:
            gateway.workers[1].ready.clear()  # what the supervisor does on a death
            stats = await gateway.fleet_stats()
            gateway.workers[1].ready.set()
            return stats
        finally:
            await gateway.close()

    stats = asyncio.run(_go())
    alive, down = stats["workers"]
    assert down["telemetry"] is None and down["up"] is False
    assert stats["fleet"]["gauges"] == alive["telemetry"]["gauges"]
    assert stats["fleet"]["info"] == {}


def test_unknown_frame_type_and_kill_of_unknown_worker():
    async def _go():
        gateway = ServiceGateway(_serve_config(num_nodes=1))
        await gateway.start()
        try:
            from repro.serving.wire import read_frame

            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.write(encode_frame({"t": "warp-drive", "id": 9}))
            writer.write(encode_frame({"t": "kill_worker", "id": 10, "node": "node99"}))
            await writer.drain()
            first = await asyncio.wait_for(read_frame(reader), timeout=10.0)
            second = await asyncio.wait_for(read_frame(reader), timeout=10.0)
            writer.close()
        finally:
            await gateway.close()
        assert first["id"] == 9 and not first["ok"] and "unknown" in first["err"]
        assert second["id"] == 10 and not second["ok"] and "node99" in second["err"]

    asyncio.run(_go())


# ------------------------------------------------------------ malformed batches
_GOOD = "".join(f"{i << 154:040x}" for i in range(64))

_MALFORMED = [
    # Routes fine on its first 16 hex chars, then used to kill the worker.
    ({"d": "0" * 16 + "z" * 24, "s": 8192}, "malformed digest blob"),
    # These three used to raise inside the batch task: no reply, ever.
    ({"d": "z" * 40, "s": 8192}, "malformed digest blob"),
    ({"d": 12345, "s": 8192}, "malformed digest blob"),
    ({"d": _GOOD, "s": [4096] * 63}, "malformed chunk sizes"),
    ({"d": _GOOD, "s": [4096] * 63 + [2**32]}, "malformed chunk sizes"),
    ({"d": _GOOD, "s": [4096] * 63 + [-1]}, "malformed chunk sizes"),
    ({"d": _GOOD, "s": [4096] * 63 + [1.5]}, "malformed chunk sizes"),
    ({"d": _GOOD, "s": "4096"}, "malformed chunk sizes"),
    ({"d": _GOOD, "s": -1}, "malformed chunk sizes"),
    ({"d": ["ab" * 20], "s": 8192}, "malformed digest blob"),
    ({"s": 8192}, "malformed digest blob"),
    ({"d": "", "s": 8192}, "malformed digest blob"),
    ({"d": "ab" * 19, "s": 8192}, "malformed digest blob"),
    # fromhex skips whitespace: 20 bytes decode out of 80 characters.
    ({"d": "ab" * 20 + " " * 40, "s": 8192}, "malformed digest blob"),
]


def test_malformed_batches_get_an_error_reply_and_kill_nothing(tmp_path):
    async def _go():
        gateway = ServiceGateway(_serve_config(tmp_path))
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            replies = []
            for number, (fields, _) in enumerate(_MALFORMED):
                writer.write(encode_frame({"t": "batch", "id": number, **fields}))
                await writer.drain()
                replies.append(await asyncio.wait_for(read_frame(reader), timeout=2.0))
            # The same connection still serves a well-formed batch, with
            # per-digest sizes split across both workers.
            good = {"t": "batch", "id": "good", "d": _GOOD, "s": list(range(64))}
            writer.write(encode_frame(good))
            writer.write(encode_frame(good))
            await writer.drain()
            first = await asyncio.wait_for(read_frame(reader), timeout=10.0)
            second = await asyncio.wait_for(read_frame(reader), timeout=10.0)
            writer.close()
            return replies, first, second, gateway.stats()
        finally:
            await gateway.close()

    replies, first, second, stats = asyncio.run(_go())
    for number, ((_, error), reply) in enumerate(zip(_MALFORMED, replies)):
        assert reply == {"t": "reply", "id": number, "ok": False,
                         "err": error, "retry": False}, reply
    assert first["ok"] and first["n"] == 64 and first["new"] == 64 and first["v"] == "0"
    assert second["ok"] and second["new"] == 0 and second["v"] == format((1 << 64) - 1, "x")
    assert stats["protocol_errors"] == len(_MALFORMED)
    assert [worker["restarts"] for worker in stats["workers"]] == [0, 0]
    assert [worker["sent"] for worker in stats["workers"]] == [2, 2]


def test_every_batch_frame_gets_exactly_one_reply(capsys):
    """An unexpected exception or a miscounted worker reply is answered too."""
    async def _go():
        gateway = ServiceGateway(_serve_config(num_nodes=1))
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)

            async def _ask(message_id):
                writer.write(encode_frame({"t": "batch", "id": message_id, "d": _GOOD, "s": 1}))
                await writer.drain()
                return await asyncio.wait_for(read_frame(reader), timeout=5.0)

            split = gateway._split
            # The worker is sent (and answers for) one digest fewer than routed.
            gateway._split = lambda blob, owners, sizes: split(blob[20:], owners[1:], sizes)
            miscounted = await _ask(1)
            gateway._split = lambda *_: 1 // 0
            crashed = await _ask(2)
            gateway._split = split
            served = await _ask(3)
            writer.close()
            return miscounted, crashed, served, gateway.stats()
        finally:
            await gateway.close()

    miscounted, crashed, served, stats = asyncio.run(_go())
    assert miscounted == {"t": "reply", "id": 1, "ok": False, "err": "UNAVAILABLE", "retry": True}
    assert crashed == {"t": "reply", "id": 2, "ok": False,
                       "err": "internal error: ZeroDivisionError", "retry": False}
    # The crash is one structured event on stderr, traceback included.
    (logged,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert logged["event"] == "batch_failed" and logged["id"] == 2
    assert logged["error"] == "ZeroDivisionError" and "1 // 0" in logged["traceback"]
    assert served["ok"] and served["n"] == 64
    assert stats["protocol_errors"] == 2
    assert stats["workers"][0]["restarts"] == 0


# ------------------------------------------------------------ hostile framing
def _protocol_errors(gateway: ServiceGateway) -> int:
    return gateway.telemetry.counters["protocol_errors"]


async def _dribble(writer, data: bytes) -> None:
    """Send ``data`` one byte per TCP segment."""
    writer.get_extra_info("socket").setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    for index in range(len(data)):
        writer.write(data[index:index + 1])
        await writer.drain()
        await asyncio.sleep(0.02)


def test_first_header_may_arrive_byte_by_byte():
    """The sniff must wait for four bytes, not parse the first one it gets."""
    async def _go():
        gateway = ServiceGateway(_serve_config(num_nodes=1))
        await gateway.start()
        try:
            frame = encode_frame({"t": "ping", "id": 7})
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            await _dribble(writer, frame[:4])
            writer.write(frame[4:])
            await writer.drain()
            pong = await asyncio.wait_for(read_frame(reader), timeout=5.0)
            writer.close()

            # The HTTP sniff is the same four bytes.
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            await _dribble(writer, b"GET ")
            writer.write(b"/stats HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(-1), timeout=5.0)
            writer.close()
            clean = _protocol_errors(gateway)

            # EOF inside the first header is a counted error; EOF before any
            # byte is just a client that went away.
            for prefix, counted in ((b"", 0), (frame[:3], 1)):
                before = _protocol_errors(gateway)
                reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
                writer.write(prefix)
                writer.write_eof()
                assert await asyncio.wait_for(reader.read(-1), timeout=5.0) == b""
                writer.close()
                assert _protocol_errors(gateway) == before + counted
            return pong, raw, clean
        finally:
            await gateway.close()

    pong, raw, clean = asyncio.run(_go())
    assert pong == {"t": "pong", "id": 7}
    assert raw.startswith(b"HTTP/1.1 200") and json.loads(raw.partition(b"\r\n\r\n")[2])["nodes"] == 1
    assert clean == 0


def test_oversized_and_non_dict_frames_are_counted_and_disconnected():
    """One frame cap, checked on the header alone; a JSON list is not a frame."""
    async def _go():
        gateway = ServiceGateway(_serve_config(num_nodes=1))
        await gateway.start()
        try:
            hostile = [
                # Announces a payload over the cap and never sends a byte of
                # it: the gateway must answer from the header, not wait.
                struct.pack("!I", MAX_FRAME_BYTES + 1),
                struct.pack("!I", 2**32 - 1),
                struct.pack("!I", 9) + b'["batch"]',
            ]
            for number, data in enumerate(hostile, start=1):
                reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
                writer.write(data)
                await writer.drain()
                assert await asyncio.wait_for(reader.read(-1), timeout=5.0) == b""
                writer.close()
                assert _protocol_errors(gateway) == number
            # A fresh connection is served afterwards.
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.write(encode_frame({"t": "ping", "id": 1}))
            await writer.drain()
            pong = await asyncio.wait_for(read_frame(reader), timeout=5.0)
            writer.close()
            return pong, gateway.stats()
        finally:
            await gateway.close()

    pong, stats = asyncio.run(_go())
    assert pong == {"t": "pong", "id": 1}
    assert stats["workers"][0]["up"] and stats["workers"][0]["restarts"] == 0


def test_disconnect_inside_a_payload_is_a_counted_protocol_error(caplog):
    """EOF after the header is the same fault as EOF inside it: counted, not raised."""
    async def _go():
        gateway = ServiceGateway(_serve_config(num_nodes=1))
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.write(struct.pack("!I", 100) + b"x" * 10)
            writer.write_eof()
            assert await asyncio.wait_for(reader.read(-1), timeout=5.0) == b""
            writer.close()
            counted = _protocol_errors(gateway)
            # A fresh connection is served afterwards.
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.write(encode_frame({"t": "ping", "id": 1}))
            await writer.drain()
            pong = await asyncio.wait_for(read_frame(reader), timeout=5.0)
            writer.close()
            return counted, pong
        finally:
            await gateway.close()

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        counted, pong = asyncio.run(_go())
    assert counted == 1
    assert pong == {"t": "pong", "id": 1}
    # An exception escaping the connection callback is what asyncio logs as
    # "Unhandled exception in client_connected_cb".
    assert not caplog.records


def test_oversized_http_head_is_a_counted_protocol_error(caplog):
    """``GET `` then >64 KiB with no end of headers: not HTTP, counted, harmless."""
    async def _go():
        gateway = ServiceGateway(_serve_config(num_nodes=1))
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.write(b"GET " + b"\x00\xff" * 70_000)
            try:
                await writer.drain()
                await asyncio.wait_for(reader.read(-1), timeout=5.0)
            except ConnectionError:
                pass  # closed on us with our bytes unread: a reset is fine
            writer.close()
            for _ in range(500):
                if _protocol_errors(gateway):
                    break
                await asyncio.sleep(0.01)
            counted = _protocol_errors(gateway)
            status, body = await _http_get(gateway.port, "/stats")
            return counted, status, json.loads(body)
        finally:
            await gateway.close()

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        counted, status, stats = asyncio.run(_go())
    assert counted == 1 and stats["protocol_errors"] == 1
    assert b"200" in status and stats["workers"][0]["up"]
    assert not caplog.records  # nothing "Unhandled exception in client_connected_cb"
