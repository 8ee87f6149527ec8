"""A client that never reads its replies cannot grow the gateway without bound.

The gateway writes replies into each client's transport; once one client's
unread replies pass the transport's high-water mark, ``pause_writing``
pauses *reading* from that client.  It then sends nothing the gateway
admits, so its replies stop accumulating -- while every other client is
served as before.  A client that half-closes still gets the replies it is
owed, a ``stats`` reply included, before the gateway closes it.
"""

from __future__ import annotations

import asyncio
import socket

from repro.serving.gateway import ServeConfig, ServiceGateway
from repro.serving.wire import encode_frame, read_frame

#: Kernel buffers on both ends of the flooding connection, shrunk so that
#: the transport's own buffer is what fills, within a second.
_SOCKET_BUFFER = 4096
_MAX_INFLIGHT = 16


def _digests(count: int, salt: int) -> str:
    return "".join(f"{(i << 150) + salt:040x}" for i in range(count))


def test_a_client_that_stops_reading_stops_being_read_and_others_are_served():
    async def _go():
        gateway = ServiceGateway(ServeConfig(port=0, num_nodes=2, max_inflight=_MAX_INFLIGHT,
                                             node_config={"bloom_expected_items": 50_000}))
        await gateway.start()
        loop = asyncio.get_running_loop()
        flood = socket.socket()
        flood.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _SOCKET_BUFFER)
        flood.setblocking(False)
        sender = None
        try:
            await loop.sock_connect(flood, ("127.0.0.1", gateway.port))
            frame = encode_frame({"t": "batch", "id": 1, "d": _digests(64, 1), "s": 4096})

            async def _send_forever():
                while True:
                    await loop.sock_sendall(flood, frame)

            sender = asyncio.ensure_future(_send_forever())
            for _ in range(500):
                if gateway._clients:
                    break
                await asyncio.sleep(0.01)
            (protocol,) = gateway._clients
            protocol.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, _SOCKET_BUFFER)
            for _ in range(3_000):  # until the gateway stops reading the flood
                if not protocol.transport.is_reading():
                    break
                await asyncio.sleep(0.01)
            paused = not protocol.transport.is_reading()
            await asyncio.sleep(0.3)  # in-flight batches drain into the buffer
            acked = gateway.telemetry.counters["acked_batches"]
            buffered = protocol.transport.get_write_buffer_size()
            await asyncio.sleep(0.5)
            stalled = gateway.telemetry.counters["acked_batches"] == acked
            still = protocol.transport.get_write_buffer_size()
            _low, high = protocol.transport.get_write_buffer_limits()

            # Another client is answered meanwhile.
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.write(encode_frame({"t": "batch", "id": "other", "d": _digests(64, 2),
                                       "s": 4096}))
            await writer.drain()
            other = await asyncio.wait_for(read_frame(reader), timeout=10.0)
            writer.close()
            return paused, acked, stalled, buffered, still, high, other, gateway.stats()
        finally:
            if sender is not None:
                sender.cancel()
            flood.close()
            await gateway.close()

    paused, acked, stalled, buffered, still, high, other, stats = asyncio.run(_go())
    assert paused and acked > 0 and stalled
    # Bounded: the high-water mark, plus the replies to the frames of the
    # read that crossed it (asyncio reads at most 256 KiB at a time; past
    # ``max_inflight`` they are sheds), plus those of the batches in flight.
    frames_per_read = 256 * 1024 // (64 * 40) + 1
    assert high <= buffered == still <= high + (frames_per_read + _MAX_INFLIGHT) * 120
    assert other["id"] == "other" and other["ok"] and other["n"] == 64
    assert stats["acked_batches"] == acked + 1


def test_a_stats_request_then_eof_is_answered_before_the_close():
    async def _go():
        gateway = ServiceGateway(ServeConfig(port=0, num_nodes=2,
                                             node_config={"bloom_expected_items": 50_000}))
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.write(encode_frame({"t": "stats", "id": "s"}))
            writer.write_eof()
            reply = await asyncio.wait_for(read_frame(reader), timeout=10.0)
            after = await asyncio.wait_for(read_frame(reader), timeout=10.0)
            writer.close()
            return reply, after
        finally:
            await gateway.close()

    reply, after = asyncio.run(_go())
    assert reply["t"] == "stats" and reply["id"] == "s"
    assert reply["stats"]["nodes"] == 2
    assert after is None  # then a clean EOF
