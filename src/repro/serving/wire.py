"""Wire protocol shared by the serving stack: framing, codecs, verdict masks.

Every peer (loadgen client, gateway, node worker) speaks the same frame
format: a 4-byte big-endian payload length followed by the encoded message.
Messages are dicts; the payload encoding is msgpack when the ``msgpack``
module is importable and JSON (UTF-8) otherwise -- the container image here
has no msgpack, so JSON is the tested default and msgpack stays an
optional fast path rather than a dependency.

Client <-> gateway (pinned): digest batches are carried as one concatenated
hex string (hex survives both codecs), and per-batch duplicate verdicts
travel as a little-endian bitmask in hex -- bit *i* set means fingerprint
*i* of the batch was a duplicate.

Message vocabulary (``t`` field):

======================  =======================================================
``batch``               ``id``, ``d`` (hex digests), ``s`` (chunk size, scalar
                        or per-digest list) -- client -> gateway.
``reply``               ``id``, ``ok``; on success ``v`` (verdict mask hex),
                        ``n`` (batch size), ``new``; on failure ``err``
                        (``OVERLOADED``/``UNAVAILABLE``/``SHUTTING_DOWN``)
                        and ``retry``.
``stats``               request; answered with ``stats`` carrying a dict.
``ping`` / ``pong``     liveness probe.
``kill_worker``         ``node`` -- admin fault injection (SIGKILL).
``shutdown``            gateway -> worker: snapshot, ack, exit.
======================  =======================================================

Gateway <-> worker (internal): ``stats``/``ping``/``shutdown`` are the same
codec dicts, but a batch and its verdicts are *packed* payloads, told apart
by a first byte no codec emits for a dict (layouts in ``docs/serving.md``):
``0x01`` + ``!I`` chunk size + n raw 20-byte digests; ``0x02`` + n ``!I``
chunk sizes + n digests; ``0x03`` + ``!I`` count + ``!I`` new + the
duplicate mask as ``ceil(count / 8)`` little-endian bytes.  The frame
readers decode a packed payload into the dict its codec twin would carry
(``d`` as ``bytes``, ``v`` as an ``int``), so each end has one dispatch.
"""

from __future__ import annotations

import json
import struct
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..storage.packing import DIGEST_BYTES

if TYPE_CHECKING:
    import asyncio

__all__ = [
    "WireError",
    "MAX_FRAME_BYTES",
    "LENGTH_PREFIX",
    "get_codec",
    "codec_names",
    "encode_frame",
    "encode_batch_frame",
    "encode_verdict_frame",
    "decode_payload",
    "read_frame",
    "frame_payloads",
    "verdict_mask",
    "mask_bits",
    "pack_verdicts",
    "unpack_verdicts",
]

#: Frames above this are a protocol violation (a batch of 100k digests is
#: ~4 MB of hex; 64 MB leaves generous headroom while catching garbage).
MAX_FRAME_BYTES = 64 * 1024 * 1024

LENGTH_PREFIX = struct.Struct("!I")

# Packed-payload tags (gateway <-> worker hop).  A JSON dict starts with
# ``{`` and a msgpack map with 0x80-0x8f/0xde/0xdf, so these never collide.
_TAG_BATCH = b"\x01"
_TAG_BATCH_SIZED = b"\x02"
_TAG_VERDICTS = b"\x03"
_U32 = LENGTH_PREFIX
_VERDICT_HEAD = struct.Struct("!II")
#: ``bytes(flags)`` holds one small int per verdict: 0 (new) or a nonzero
#: duplicate code -- ``True``, or a node tier code (1 RAM, 2 SSD, 3 repair,
#: see ``core.protocol.SERVED_FROM_TIER``).  Map them to ASCII binary digits.
_FLAG_DIGITS = b"0111" + bytes(252)

try:  # pragma: no cover - absent in the pinned environment
    import msgpack  # type: ignore
except ImportError:  # pragma: no cover - the tested default
    msgpack = None


class WireError(Exception):
    """A malformed or oversized frame, or an unknown codec."""


class JsonCodec:
    """UTF-8 JSON payloads; works everywhere, surprisingly fast for dicts."""

    name = "json"

    @staticmethod
    def encode(message: Dict[str, Any]) -> bytes:
        return json.dumps(message, separators=(",", ":")).encode("utf-8")

    @staticmethod
    def decode(payload: bytes) -> Dict[str, Any]:
        try:
            message = json.loads(payload)
        except ValueError as error:
            raise WireError(f"undecodable JSON frame: {error}") from None
        if not isinstance(message, dict):
            raise WireError(f"frame must decode to a dict, got {type(message).__name__}")
        return message


class MsgpackCodec:  # pragma: no cover - requires the optional msgpack module
    """msgpack payloads (optional fast path when the module is installed)."""

    name = "msgpack"

    @staticmethod
    def encode(message: Dict[str, Any]) -> bytes:
        return msgpack.packb(message, use_bin_type=True)

    @staticmethod
    def decode(payload: bytes) -> Dict[str, Any]:
        try:
            message = msgpack.unpackb(payload, raw=False)
        except Exception as error:
            raise WireError(f"undecodable msgpack frame: {error}") from None
        if not isinstance(message, dict):
            raise WireError(f"frame must decode to a dict, got {type(message).__name__}")
        return message


def codec_names() -> List[str]:
    """Codec names accepted by :func:`get_codec` in preference order."""
    names = ["auto", "json"]
    if msgpack is not None:  # pragma: no cover
        names.append("msgpack")
    return names


def get_codec(name: str = "auto"):
    """Resolve a codec by name; ``auto`` prefers msgpack when available."""
    if name == "auto":
        return MsgpackCodec if msgpack is not None else JsonCodec
    if name == "json":
        return JsonCodec
    if name == "msgpack":
        if msgpack is None:
            raise WireError("msgpack codec requested but the msgpack module is not installed")
        return MsgpackCodec  # pragma: no cover
    raise WireError(f"unknown codec {name!r}; available: {', '.join(codec_names())}")


# ---------------------------------------------------------------------- framing
def _frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES")
    return LENGTH_PREFIX.pack(len(payload)) + payload


def encode_frame(message: Dict[str, Any], codec=JsonCodec) -> bytes:
    """One wire frame: length prefix + encoded payload."""
    return _frame(codec.encode(message))


def encode_batch_frame(blob: bytes, sizes: Union[int, Sequence[int]]) -> bytes:
    """Packed gateway -> worker batch: raw digests plus ``!I`` chunk size(s).

    Raises :class:`struct.error` for a size that is not an integer in u32.
    """
    if isinstance(sizes, int):
        return _frame(_TAG_BATCH + _U32.pack(sizes) + blob)
    return _frame(_TAG_BATCH_SIZED + struct.pack(f"!{len(sizes)}I", *sizes) + blob)


def encode_verdict_frame(count: int, new_entries: int, mask: int) -> bytes:
    """Packed worker -> gateway reply: count, new count, little-endian mask."""
    return _frame(
        _TAG_VERDICTS + _VERDICT_HEAD.pack(count, new_entries)
        + mask.to_bytes((count + 7) // 8, "little")
    )


def decode_payload(payload: bytes, codec=JsonCodec) -> Dict[str, Any]:
    """Decode one frame payload, packed or codec, into a message dict."""
    tag = payload[:1]
    body = len(payload) - 1
    if tag == _TAG_BATCH:
        if body < _U32.size or (body - _U32.size) % DIGEST_BYTES:
            raise WireError(f"packed batch frame with a {body}-byte body")
        return {"t": "batch", "d": payload[1 + _U32.size:],
                "s": _U32.unpack_from(payload, 1)[0]}
    if tag == _TAG_BATCH_SIZED:
        count, rest = divmod(body, _U32.size + DIGEST_BYTES)
        if rest:
            raise WireError(f"packed sized-batch frame with a {body}-byte body")
        return {"t": "batch", "d": payload[1 + _U32.size * count:],
                "s": struct.unpack_from(f"!{count}I", payload, 1)}
    if tag == _TAG_VERDICTS:
        if body < _VERDICT_HEAD.size:
            raise WireError("truncated packed verdict frame")
        count, new_entries = _VERDICT_HEAD.unpack_from(payload, 1)
        mask = int.from_bytes(payload[1 + _VERDICT_HEAD.size:], "little")
        if (body - _VERDICT_HEAD.size != (count + 7) // 8 or new_entries > count
                or mask >> count):
            raise WireError("inconsistent packed verdict frame")
        return {"t": "reply", "ok": True, "v": mask, "n": count, "new": new_entries}
    return codec.decode(payload)


def _payload_length(header: bytes) -> int:
    length = LENGTH_PREFIX.unpack(header)[0]
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    return length


def frame_payloads(pending: bytearray, data: bytes) -> Iterable[bytearray]:
    """The whole frames' payloads in ``pending + data``, for a reader fed by
    callbacks; the bytes of an unfinished frame stay in ``pending``.

    A length prefix over :data:`MAX_FRAME_BYTES` raises :class:`WireError`
    only once the whole frames ahead of it have been iterated: a reader
    serves those, then ends the connection.
    """
    pending += data
    payloads = []
    start, size = 0, len(pending)
    while size - start >= LENGTH_PREFIX.size:
        stop = start + LENGTH_PREFIX.size
        try:
            end = stop + _payload_length(pending[start:stop])
        except WireError as error:
            del pending[:start]
            return _then_raise(payloads, error)
        if end > size:
            break
        payloads.append(pending[stop:end])
        start = end
    del pending[:start]
    return payloads


def _then_raise(payloads: List[bytearray], error: WireError) -> Iterable[bytearray]:
    yield from payloads
    raise error


async def read_frame(reader: asyncio.StreamReader, codec=JsonCodec) -> Optional[Dict[str, Any]]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    ``readexactly`` signals EOF with ``asyncio.IncompleteReadError``, an
    ``EOFError``; catching the base keeps asyncio out of the worker, which
    imports this module but never runs an event loop.
    """
    try:
        header = await reader.readexactly(LENGTH_PREFIX.size)
    except EOFError as error:
        if not error.partial:
            return None  # clean EOF between frames
        raise WireError("connection closed mid-frame") from None
    length = _payload_length(header)
    try:
        payload = await reader.readexactly(length)
    except EOFError:
        raise WireError("connection closed mid-frame") from None
    return decode_payload(payload, codec)


# ----------------------------------------------------------------- verdict masks
def verdict_mask(duplicate_flags: Sequence[int]) -> int:
    """Per-fingerprint duplicate verdicts as an integer bitmask (bit i = fp i).

    Accepts bools or tier codes: any nonzero flag sets its bit.
    """
    return int(b"0" + bytes(duplicate_flags)[::-1].translate(_FLAG_DIGITS), 2)


def mask_bits(mask: int, count: int) -> str:
    """The low ``count`` bits of ``mask`` as ``"0"``/``"1"`` characters, bit 0 first."""
    return format(mask, f"0{count}b")[::-1][:count]


def pack_verdicts(duplicate_flags: Sequence[bool]) -> str:
    """Pack per-fingerprint duplicate verdicts into a hex bitmask (bit i = fp i)."""
    return format(verdict_mask(duplicate_flags), "x")


def unpack_verdicts(mask_hex: str, count: int) -> Tuple[int, List[bool]]:
    """Unpack a verdict mask; returns ``(duplicates, flags)`` for ``count`` fps."""
    bits = mask_bits(int(mask_hex, 16) if mask_hex else 0, count)
    return bits.count("1"), list(map("1".__eq__, bits))
