"""Bloom filter.

The SHHC node keeps a bloom filter in RAM in front of the SSD-resident hash
table so that lookups for fingerprints that are definitely not stored avoid
the flash read entirely (paper §III.B).  This implementation is a standard
partitioned-by-hash bloom filter over a Python ``bytearray`` bit vector, sized
from a target false-positive rate.

Keys are digests
----------------
The keys this filter guards in SHHC are SHA-1 fingerprints: 20 bytes that are
already uniformly distributed, so ``h1``/``h2`` for Kirsch-Mitzenmacher
double hashing are read straight out of the key -- bytes ``[0:8)`` and
``[8:16)`` -- and never re-hashed.  A 20-byte digest is the only key type:
every probe and insert, per key or per batch, raises :class:`ValueError`
on a key of any other length.

One probe walk
--------------
Every probe and insert visits the Kirsch-Mitzenmacher sequence
``(h1 + i * (h2 | 1)) % num_bits`` incrementally: ``index = h1 % num_bits``,
``step = (h2 | 1) % num_bits``, then add-and-conditionally-subtract per
round.  That replaces a 64-bit multiply and wide modulo per probe with
small-int arithmetic.  The walk is written once, in :func:`_emit_walk`,
and four functions are generated from it per filter shape
(:func:`_shape_kernels`): the per-key pair behind ``key in filter`` /
:meth:`BloomFilter.add`, and a pair that runs a whole packed batch.

Batch APIs (:meth:`BloomFilter.add_many` / :meth:`BloomFilter.contains_many`)
share one routing.  A list or tuple of digests (or a
:class:`~repro.core.digest_batch.DigestBatch`) is *packed*: the hash words
of the whole batch come from one ``struct.unpack`` over the contiguous
buffer and the generated batch function walks the probe sequences with no
per-key call at all.  Any other iterable, and any shape too wide to
unroll, is a loop over the per-key function, which is the reference: both
routes leave the same bits, count and verdicts
(tests/test_vectorized_kernels.py, against the per-key functions and an
independent model in tests/oracles/bloom_model.py).
"""

from __future__ import annotations

import math
import struct
from functools import partial
from typing import Callable, Iterable, List, Optional, Sequence

from .packing import DIGEST_BYTES, digest_hash_words, digest_words

__all__ = ["BloomFilter", "optimal_parameters"]

#: Byte-value -> popcount lookup table (satellite fix: ``fill_ratio`` used
#: to materialize the whole bit vector as one Python big-int per call).
_POPCOUNT_TABLE = bytes(bin(value).count("1") for value in range(256))

#: The walk is unrolled for hash counts up to this; larger (unusual)
#: configurations get the same walk as a loop, per key only.
_MAX_UNROLLED_HASHES = 16

#: Cache of generated functions keyed by (num_bits, num_hashes): nodes in
#: a cluster share parameters, so each shape compiles once.
_KERNEL_CACHE: dict = {}


def _emit_walk(num_hashes: int, pad: str, action: Callable[[str], List[str]]) -> List[str]:
    """Source lines walking one key's probe sequence from ``h1``/``h2``.

    ``action(pad)`` returns the lines to run at each visited ``index``
    (test the bit, set the bit).  Up to :data:`_MAX_UNROLLED_HASHES` rounds
    the walk is an unrolled ladder, which removes the per-index loop
    machinery that otherwise dominates a pure-Python probe, and the step
    is only derived once the first action has run -- a probe whose first
    bit is clear (the common definite negative) skips that modulo.  Beyond
    the bound the same walk is a ``for`` loop.
    """
    first = f"{pad}index = h1 % nb"
    step = f"{pad}step = (h2 | 1) % nb"

    def advance(at: str) -> List[str]:
        return [f"{at}index += step", f"{at}if index >= nb: index -= nb"]

    if num_hashes > _MAX_UNROLLED_HASHES:
        inner = pad + "    "
        return [first, step, f"{pad}for _ in range({num_hashes}):", *action(inner), *advance(inner)]
    lines = [first, *action(pad)]
    if num_hashes > 1:
        lines.append(step)
    for _ in range(num_hashes - 1):
        lines += advance(pad) + action(pad)
    return lines


def _shape_kernels(num_bits: int, num_hashes: int) -> tuple:
    """``(contains_one, add_one, contains_words, add_words)`` for one shape.

    The functions are specialised with ``exec`` (the ``namedtuple``
    technique): ``num_bits`` is baked in as a constant and the walk comes
    from :func:`_emit_walk`.

    * ``contains_one`` / ``add_one`` take ``(bits, key)`` so the bit
      vector can be pre-bound with ``functools.partial`` and a probe costs
      one call frame.  Both hash words come from one ``struct`` unpack of
      the digest, which is also the length check.
    * ``contains_words(words, bits, emit)`` / ``add_words(words, bits)``
      take the flat ``(h1, h2, h1, h2, ...)`` tuple produced by one
      ``struct.unpack`` over a contiguous digest buffer
      (:func:`repro.storage.packing.digest_hash_words`): the same words
      per digest, so verdicts and bit mutations are bit-identical.
      ``None`` for shapes too large to unroll.
    """
    shape = (num_bits, num_hashes)
    kernels = _KERNEL_CACHE.get(shape)
    if kernels is not None:
        return kernels

    def probe(on_miss: str) -> Callable[[str], List[str]]:
        return lambda pad: [
            f"{pad}if not bits[index >> 3] & (1 << (index & 7)):",
            f"{pad}    {on_miss}",
        ]

    def set_bit(pad: str) -> List[str]:
        return [f"{pad}bits[index >> 3] |= 1 << (index & 7)"]

    def per_key(name: str, action, result: List[str]) -> List[str]:
        return [
            f"def {name}(bits, key):",
            f"    nb = {num_bits}",
            "    try:",
            "        h1, h2 = digest_words(key)",
            "    except struct_error:",
            "        raise ValueError(f'bloom keys are 20-byte digests, not {key!r}') from None",
            *_emit_walk(num_hashes, "    ", action),
            *result,
        ]

    def per_batch(signature: str, action, result: List[str]) -> List[str]:
        return [
            f"def {signature}:",
            f"    nb = {num_bits}",
            "    _it = iter(words)",
            "    for h1, h2 in zip(_it, _it):",
            *_emit_walk(num_hashes, "        ", action),
            *result,
        ]

    source = per_key("contains_one", probe("return False"), ["    return True"])
    source += per_key("add_one", set_bit, [])
    if num_hashes <= _MAX_UNROLLED_HASHES:
        source += per_batch(
            "contains_words(words, bits, emit)",
            probe("emit(False); continue"),
            ["        emit(True)"],
        )
        source += per_batch("add_words(words, bits)", set_bit, [])
    namespace: dict = {"digest_words": digest_words, "struct_error": struct.error}
    exec("\n".join(source), namespace)  # noqa: S102 - static template, no user input
    kernels = _KERNEL_CACHE[shape] = tuple(
        namespace.get(name) for name in ("contains_one", "add_one", "contains_words", "add_words")
    )
    return kernels


def optimal_parameters(expected_items: int, false_positive_rate: float) -> tuple[int, int]:
    """Return ``(bits, hash_count)`` for the target capacity and FP rate."""
    if expected_items <= 0:
        raise ValueError("expected_items must be positive")
    if not 0.0 < false_positive_rate < 1.0:
        raise ValueError("false_positive_rate must be in (0, 1)")
    bits = int(math.ceil(-expected_items * math.log(false_positive_rate) / (math.log(2) ** 2)))
    hashes = max(1, int(round(bits / expected_items * math.log(2))))
    return max(8, bits), hashes


class BloomFilter:
    """A classic bloom filter over 20-byte digest keys.

    Parameters
    ----------
    expected_items:
        The number of keys the filter is sized for.
    false_positive_rate:
        Target false-positive probability at ``expected_items`` insertions.
    num_bits / num_hashes:
        Explicit sizing; overrides the derived parameters when given.
    """

    def __init__(
        self,
        expected_items: int = 1_000_000,
        false_positive_rate: float = 0.01,
        num_bits: Optional[int] = None,
        num_hashes: Optional[int] = None,
    ) -> None:
        derived_bits, derived_hashes = optimal_parameters(expected_items, false_positive_rate)
        self.num_bits = int(num_bits) if num_bits is not None else derived_bits
        self.num_hashes = int(num_hashes) if num_hashes is not None else derived_hashes
        if self.num_bits <= 0 or self.num_hashes <= 0:
            raise ValueError("num_bits and num_hashes must be positive")
        self.expected_items = expected_items
        self.false_positive_rate = false_positive_rate
        self._bits = bytearray((self.num_bits + 7) // 8)
        self._count = 0
        contains_one, add_one, self._contains_words, self._add_words = _shape_kernels(
            self.num_bits, self.num_hashes
        )
        # The per-key functions are pre-bound to this filter's state (the
        # bit vector is mutated in place and never reassigned, so binding
        # it once is safe).
        #: Single-key membership probe: the body of ``key in filter`` and
        #: what hot loops should bind instead of ``__contains__``.
        self.contains_one: Callable[[bytes], bool] = partial(contains_one, self._bits)
        #: Single-key insert for hot loops.  Unlike :meth:`add` it does NOT
        #: advance the insert count -- a tight loop (recovery replay) calls
        #: this per key and settles once with :meth:`count_inserts`
        #: (state-identical).
        self.add_one: Callable[[bytes], None] = partial(add_one, self._bits)

    def count_inserts(self, amount: int) -> None:
        """Advance the insert count for keys added via :attr:`add_one`."""
        self._count += amount

    # -- internals -------------------------------------------------------------
    def _batch_words(self, keys):
        """The flat ``(h1, h2, ...)`` words of a batch, or ``None`` to go key by key.

        The one routing decision behind :meth:`add_many` and
        :meth:`contains_many`: a :class:`~repro.core.digest_batch.DigestBatch`
        has its words cached, a non-empty list or tuple is joined and
        unpacked in one call, and anything else (or a shape too wide to
        unroll) goes key by key.  A listed key that is not a 20-byte digest
        raises :class:`ValueError`: the joined length catches one, the
        longest key wrong lengths that sum to a multiple of 20.
        """
        if self._add_words is None:
            return None
        if hasattr(keys, "hash_words"):
            return keys.hash_words()
        if not (type(keys) in (list, tuple) and keys):
            return None
        blob = b"".join(keys)
        if len(blob) != DIGEST_BYTES * len(keys) or max(map(len, keys)) != DIGEST_BYTES:
            raise ValueError(f"bloom keys are {DIGEST_BYTES}-byte digests; this batch holds others")
        return digest_hash_words(blob, len(keys))

    # -- public API -------------------------------------------------------------
    def add(self, key: bytes) -> None:
        """Insert ``key`` into the filter."""
        self.add_one(key)
        self._count += 1

    def __contains__(self, key: bytes) -> bool:
        """``True`` if the key *may* have been added, ``False`` if definitely not."""
        return self.contains_one(key)

    def add_many(self, keys: Iterable[bytes]) -> None:
        """Insert many keys with per-call overhead amortised across the batch.

        Same bits and same count as :meth:`add` per key, by whichever
        route :meth:`_batch_words` picks for the batch.
        """
        words = self._batch_words(keys)
        if words is None:
            add_one = self.add_one
            added = 0
            for key in getattr(keys, "digests", keys):
                add_one(key)
                added += 1
            self._count += added
        else:
            self._add_words(words, self._bits)
            self._count += len(words) >> 1

    def contains_many(self, keys: Sequence[bytes]) -> List[bool]:
        """Membership verdicts for a batch of keys, in input order.

        Same verdicts as ``key in filter`` per key, by whichever route
        :meth:`_batch_words` picks for the batch.
        """
        words = self._batch_words(keys)
        if words is None:
            return list(map(self.contains_one, getattr(keys, "digests", keys)))
        verdicts: List[bool] = []
        self._contains_words(words, self._bits, verdicts.append)
        return verdicts

    @property
    def count(self) -> int:
        """Number of insertions performed (not distinct keys)."""
        return self._count

    def raw_bits(self):
        """The live bit vector, for fused external kernels.

        The hash node's fused batch kernel (:mod:`repro.core.bucket_kernel`)
        probes and sets bits inline with the exact arithmetic of this
        filter's own walk; it reads the vector once per batch through
        this accessor.  The object identity is stable for the filter's
        lifetime (``clear``/``restore_payload`` mutate in place), matching
        the contract the pre-bound per-key functions rely on.
        """
        return self._bits

    def fill_ratio(self) -> float:
        """Fraction of bits set (used to estimate the current FP rate).

        Popcounts through :data:`_POPCOUNT_TABLE` in bounded chunks.  The
        previous implementation materialized the entire bit vector as one
        Python big-int (``int.from_bytes``) per call -- an O(num_bits)
        allocation on every stats/``/stats`` poll, megabytes for the
        filter sizes the benchmarks run.
        """
        bits = self._bits
        table = _POPCOUNT_TABLE
        set_bits = 0
        view = memoryview(bits)
        chunk = 1 << 16
        for start in range(0, len(bits), chunk):
            set_bits += sum(bytes(view[start:start + chunk]).translate(table))
        return set_bits / self.num_bits

    def clear(self) -> None:
        """Remove all entries (reset every bit).

        Zeroes the bit vector in place: the per-key functions are bound to
        the bytearray object at construction, so it must never be replaced.
        """
        self._bits[:] = bytes(len(self._bits))
        self._count = 0

    def snapshot_payload(self) -> bytes:
        """Copy of the raw bit vector, for persistence snapshots."""
        return bytes(self._bits)

    def restore_payload(self, payload: bytes, count: int) -> None:
        """Overwrite the bit vector from a snapshot payload.

        The copy happens in place (the per-key functions are bound to the
        bytearray object at construction), so the payload must match the
        filter's geometry exactly.
        """
        if len(payload) != len(self._bits):
            raise ValueError(
                f"snapshot payload is {len(payload)} bytes; "
                f"this filter holds {len(self._bits)}"
            )
        self._bits[:] = payload
        self._count = int(count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BloomFilter bits={self.num_bits} hashes={self.num_hashes} "
            f"count={self._count} fill={self.fill_ratio():.3f}>"
        )
