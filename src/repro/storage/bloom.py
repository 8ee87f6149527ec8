"""Bloom filter.

The SHHC node keeps a bloom filter in RAM in front of the SSD-resident hash
table so that lookups for fingerprints that are definitely not stored avoid
the flash read entirely (paper §III.B).  This implementation is a standard
partitioned-by-hash bloom filter over a Python ``bytearray`` bit vector, sized
from a target false-positive rate.

Zero-rehash fast path
---------------------
The keys this filter guards in SHHC are SHA-1 fingerprints: 20 bytes that are
already uniformly distributed.  Hashing a cryptographic digest *again* (the
classic SHA-256 double-hashing setup) costs more than every other operation
on the probe path combined, so byte keys of at least 16 bytes take a
digest-key fast path that reads ``h1``/``h2`` for Kirsch-Mitzenmacher double
hashing straight out of the key material.  Short keys and strings keep the
SHA-256 path, which is also available explicitly via ``digest_keys=False``
for callers whose long keys are *not* uniform (e.g. file paths).

Batch APIs (:meth:`BloomFilter.add_many` / :meth:`BloomFilter.contains_many`)
take the *packed* path when every key is a 20-byte digest (or the caller
hands a :class:`~repro.core.digest_batch.DigestBatch`): the hash words of
the whole batch come from one ``struct.unpack`` over the contiguous
buffer and an exec-unrolled kernel walks the probe sequences with no
per-key ``int.from_bytes``/type dispatch at all.  The previous per-key
kernels are retained verbatim as :meth:`BloomFilter.add_many_scalar` /
:meth:`BloomFilter.contains_many_scalar` -- the reference oracle the
differential tests (tests/test_vectorized_kernels.py) drive the packed
path against.

When the optional numpy backend is active (see :mod:`repro.storage.npy`),
batches of at least ``REPRO_NUMPY_MIN_BATCH`` keys take a *columnar* path
instead: every Kirsch-Mitzenmacher probe index for the whole batch is
computed as one ``(n, num_hashes)`` ``uint64`` array and the bit vector is
gathered/scattered through a zero-copy ``np.uint8`` view
(``np.bitwise_or.at`` for inserts, a boolean AND-reduction for probes).
The arithmetic mirrors the scalar kernels step for step, so bits and
verdicts stay byte-identical; :meth:`BloomFilter.add_many_np` /
:meth:`BloomFilter.contains_many_np` expose the columnar kernels
explicitly for the differential tests and benchmarks.

Shared-memory backing (opt-in)
------------------------------
``BloomFilter(..., shared=True)`` places the bit vector in a
``multiprocessing.shared_memory`` segment (16-byte geometry header +
bits); ``shared_name=...`` attaches to an existing segment -- that is how
a respawned serving worker re-adopts its predecessor's filter and how
sweep workers can share one read-mostly filter.  The default remains a
private ``bytearray``, and platforms without shared memory degrade to it
silently (see :mod:`repro.storage.shm`).
"""

from __future__ import annotations

import hashlib
import math
import struct
from functools import partial
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .npy import HAVE_NUMPY, NUMPY_MIN_BATCH, np as _np
from .packing import digest_hash_words, digest_hash_words_np
from .shm import SharedBuffer

__all__ = ["BloomFilter", "optimal_parameters"]

#: The columnar kernels compute the whole probe sequence closed-form in
#: ``uint64`` -- ``(index0 + i * step) % num_bits`` -- which is exact only
#: while ``index0 + i * step`` cannot overflow: with ``index0, step <
#: num_bits`` and at most 16 probe rounds (the unroll bound shared with
#: the packed kernels), ``num_bits < 2**58`` keeps the worst case under
#: ``2**63``.  Filters anywhere near this would not fit in RAM anyway.
_NP_MAX_BITS = 1 << 58

#: Byte-value -> popcount lookup table (satellite fix: ``fill_ratio`` used
#: to materialize the whole bit vector as one Python big-int per call).
_POPCOUNT_TABLE = bytes(bin(value).count("1") for value in range(256))

#: Shared-segment layout: magic, num_bits, num_hashes -- then the bits.
_SHM_MAGIC = b"RBF1"
_SHM_HEADER = struct.Struct(">4sQI")

#: Byte keys at least this long are treated as uniform digests by default.
_DIGEST_KEY_MIN_BYTES = 16

#: Unrolled batch kernels are generated for hash counts up to this; larger
#: (unusual) configurations fall back to the generic probe loop.
_MAX_UNROLLED_HASHES = 16

#: Cache of generated batch kernels keyed by (num_bits, num_hashes):
#: nodes in a cluster share parameters, so each shape compiles once.
_KERNEL_CACHE: dict = {}


def _batch_kernels(num_bits: int, num_hashes: int):
    """Return the exec-generated kernel tuple for one filter shape.

    ``(contains_kernel, add_kernel, contains_one_kernel, add_one_kernel,
    contains_words_kernel, add_words_kernel)`` -- the first four are the
    original per-key kernels (retained as the scalar reference oracle);
    the ``*_words`` pair drives the packed path: it takes the flat
    ``(h1, h2)`` word tuple produced by one ``struct.unpack`` over the
    contiguous digest buffer (:func:`repro.storage.packing.digest_hash_words`)
    and probes/sets whole batches with zero per-key hashing or dispatch.

    The kernels are specialised with ``exec`` (the ``namedtuple`` technique):
    ``num_bits`` is baked in as a constant and the Kirsch-Mitzenmacher probe
    walk is fully unrolled, which removes the per-index loop machinery that
    otherwise dominates a pure-Python probe.  20-byte keys (SHA-1
    fingerprints, the hot case) derive both hash words from one
    ``int.from_bytes``; every other key goes through the caller-supplied
    ``hash_pair`` (which honours ``digest_keys``).  The ``*_one`` variants
    serve the single-key :meth:`BloomFilter.__contains__` /
    :meth:`BloomFilter.add` hot path (bound via ``functools.partial``, so a
    probe costs one call frame); they take ``(bits, hash_pair, digest_keys,
    key)`` so the per-filter state can be pre-bound.  Returns ``None`` for
    shapes too large to unroll.
    """
    if num_hashes > _MAX_UNROLLED_HASHES:
        return None
    shape = (num_bits, num_hashes)
    kernels = _KERNEL_CACHE.get(shape)
    if kernels is not None:
        return kernels

    def _header(name: str) -> list:
        return [
            f"def {name}(keys, bits, emit, hash_pair, digest_keys):",
            "    from_bytes = int.from_bytes",
            f"    nb = {num_bits}",
            "    for key in keys:",
            "        if digest_keys and type(key) is bytes and len(key) == 20:",
            "            whole = from_bytes(key, 'big')",
            "            index = (whole >> 96) % nb",
            "            step = (((whole >> 32) & 0xFFFFFFFFFFFFFFFF) | 1) % nb",
            "        else:",
            "            h1, h2 = hash_pair(key)",
            "            index = h1 % nb",
            "            step = h2 % nb",
        ]

    probe_lines = _header("contains_kernel")
    for i in range(num_hashes):
        probe_lines.append("        if not bits[index >> 3] & (1 << (index & 7)):")
        probe_lines.append("            emit(False); continue")
        if i < num_hashes - 1:
            probe_lines.append("        index += step")
            probe_lines.append("        if index >= nb: index -= nb")
    probe_lines.append("        emit(True)")

    add_lines = _header("add_kernel")
    for i in range(num_hashes):
        add_lines.append("        bits[index >> 3] |= 1 << (index & 7)")
        if i < num_hashes - 1:
            add_lines.append("        index += step")
            add_lines.append("        if index >= nb: index -= nb")

    def _one_header(name: str) -> list:
        return [
            f"def {name}(bits, hash_pair, digest_keys, key):",
            f"    nb = {num_bits}",
            "    if digest_keys and type(key) is bytes and len(key) == 20:",
            "        whole = int.from_bytes(key, 'big')",
            "        index = (whole >> 96) % nb",
            "        step = (((whole >> 32) & 0xFFFFFFFFFFFFFFFF) | 1) % nb",
            "    else:",
            "        h1, h2 = hash_pair(key)",
            "        index = h1 % nb",
            "        step = h2 % nb",
        ]

    probe_one_lines = _one_header("contains_one_kernel")
    for i in range(num_hashes):
        probe_one_lines.append("    if not bits[index >> 3] & (1 << (index & 7)):")
        probe_one_lines.append("        return False")
        if i < num_hashes - 1:
            probe_one_lines.append("    index += step")
            probe_one_lines.append("    if index >= nb: index -= nb")
    probe_one_lines.append("    return True")

    add_one_lines = _one_header("add_one_kernel")
    for i in range(num_hashes):
        add_one_lines.append("    bits[index >> 3] |= 1 << (index & 7)")
        if i < num_hashes - 1:
            add_one_lines.append("    index += step")
            add_one_lines.append("    if index >= nb: index -= nb")

    # Packed-batch kernels: ``words`` is the flat (h1, h2, h1, h2, ...)
    # tuple from one struct.unpack over the contiguous digest buffer, so
    # there is no per-key type dispatch or int.from_bytes left at all.
    # ``h1 % nb`` equals the scalar kernel's ``(whole >> 96) % nb`` and
    # ``(h2 | 1) % nb`` its ``(((whole >> 32) & 2**64-1) | 1) % nb`` for a
    # 20-byte digest, so verdicts and bit mutations are bit-identical.
    contains_words_lines = [
        "def contains_words_kernel(words, bits, emit):",
        f"    nb = {num_bits}",
        "    _it = iter(words)",
        "    for h1, h2 in zip(_it, _it):",
        "        index = h1 % nb",
    ]
    for i in range(num_hashes):
        contains_words_lines.append("        if not bits[index >> 3] & (1 << (index & 7)):")
        contains_words_lines.append("            emit(False); continue")
        if i < num_hashes - 1:
            if i == 0:
                # The step is only needed once the first probe passes --
                # definite negatives (the common shortcut) skip the modulo.
                contains_words_lines.append("        step = (h2 | 1) % nb")
            contains_words_lines.append("        index += step")
            contains_words_lines.append("        if index >= nb: index -= nb")
    contains_words_lines.append("        emit(True)")

    add_words_lines = [
        "def add_words_kernel(words, bits):",
        f"    nb = {num_bits}",
        "    _it = iter(words)",
        "    for h1, h2 in zip(_it, _it):",
        "        index = h1 % nb",
    ]
    if num_hashes > 1:
        add_words_lines.append("        step = (h2 | 1) % nb")
    for i in range(num_hashes):
        add_words_lines.append("        bits[index >> 3] |= 1 << (index & 7)")
        if i < num_hashes - 1:
            add_words_lines.append("        index += step")
            add_words_lines.append("        if index >= nb: index -= nb")

    namespace: dict = {}
    exec("\n".join(probe_lines), namespace)  # noqa: S102 - static template, no user input
    exec("\n".join(add_lines), namespace)  # noqa: S102
    exec("\n".join(probe_one_lines), namespace)  # noqa: S102
    exec("\n".join(add_one_lines), namespace)  # noqa: S102
    exec("\n".join(contains_words_lines), namespace)  # noqa: S102
    exec("\n".join(add_words_lines), namespace)  # noqa: S102
    kernels = (
        namespace["contains_kernel"],
        namespace["add_kernel"],
        namespace["contains_one_kernel"],
        namespace["add_one_kernel"],
        namespace["contains_words_kernel"],
        namespace["add_words_kernel"],
    )
    _KERNEL_CACHE[shape] = kernels
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
    """A classic bloom filter over byte-string keys.

    Parameters
    ----------
    expected_items:
        The number of keys the filter is sized for.
    false_positive_rate:
        Target false-positive probability at ``expected_items`` insertions.
    num_bits / num_hashes:
        Explicit sizing; overrides the derived parameters when given.
    digest_keys:
        When ``True`` (the default), byte keys of >= 16 bytes are assumed to
        be uniformly distributed digests and ``h1``/``h2`` are read directly
        from the key bytes instead of re-hashing with SHA-256.  Set to
        ``False`` when long keys may be structured (non-uniform).
    shared / shared_name:
        Opt-in shared-memory backing for the bit vector.  ``shared=True``
        creates a segment (anonymous unless ``shared_name`` is given, in
        which case an existing segment with matching geometry is adopted
        instead -- the respawned-worker case); ``shared_name`` alone
        attaches to an existing segment and raises ``FileNotFoundError``
        if it is missing.  Only the *bits* are shared; ``count`` stays
        process-local (recovery/replay restores it per process).  When the
        platform cannot allocate segments, ``shared=True`` silently falls
        back to a private ``bytearray`` (``shared_segment_name`` is then
        ``None``).
    """

    def __init__(
        self,
        expected_items: int = 1_000_000,
        false_positive_rate: float = 0.01,
        num_bits: Optional[int] = None,
        num_hashes: Optional[int] = None,
        digest_keys: bool = True,
        shared: bool = False,
        shared_name: Optional[str] = None,
    ) -> None:
        derived_bits, derived_hashes = optimal_parameters(expected_items, false_positive_rate)
        self.num_bits = int(num_bits) if num_bits is not None else derived_bits
        self.num_hashes = int(num_hashes) if num_hashes is not None else derived_hashes
        if self.num_bits <= 0 or self.num_hashes <= 0:
            raise ValueError("num_bits and num_hashes must be positive")
        self.expected_items = expected_items
        self.false_positive_rate = false_positive_rate
        self.digest_keys = bool(digest_keys)
        num_bytes = (self.num_bits + 7) // 8
        self._buffer: Optional[SharedBuffer] = None
        if shared or shared_name is not None:
            self._bits = self._map_shared_bits(num_bytes, shared, shared_name)
        else:
            self._bits = bytearray(num_bytes)
        #: Lazily created ``np.uint8`` view of ``_bits`` (see :meth:`np_bits`).
        self._np_bits = None
        self._count = 0
        # Unrolled kernels for this filter shape, or None when num_hashes is
        # too large to unroll (generic loop then).  The single-key variants
        # are pre-bound to this filter's state (the bit vector is mutated in
        # place and never reassigned, so binding it once is safe); they are
        # the bodies of ``add``/``__contains__`` and what recovery replay
        # binds for its per-key inserts.
        self._kernels = _batch_kernels(self.num_bits, self.num_hashes)
        if self._kernels is not None:
            self._contains_one: Optional[Callable[[bytes], bool]] = partial(
                self._kernels[2], self._bits, self._hash_pair, self.digest_keys
            )
            self._add_one: Optional[Callable[[bytes], None]] = partial(
                self._kernels[3], self._bits, self._hash_pair, self.digest_keys
            )
        else:
            self._contains_one = None
            self._add_one = None
        #: Single-key membership probe bound to the fastest implementation
        #: for this shape; semantically identical to ``key in filter`` and
        #: what hot loops should bind instead of ``__contains__``.
        self.contains_one: Callable[[bytes], bool] = (
            self._contains_one if self._contains_one is not None else self.__contains__
        )
        #: Single-key insert for hot loops.  Unlike :meth:`add` it does NOT
        #: advance the insert count -- a tight loop calls this per key and
        #: settles once with :meth:`count_inserts` (state-identical).
        self.add_one: Callable[[bytes], None] = (
            self._add_one if self._add_one is not None else self._add_uncounted
        )

    def _add_uncounted(self, key: bytes) -> None:
        """Generic-shape fallback for :attr:`add_one` (no count advance)."""
        self.add(key)
        self._count -= 1

    def count_inserts(self, amount: int) -> None:
        """Advance the insert count for keys added via :attr:`add_one`."""
        self._count += amount

    # -- shared-memory backing ---------------------------------------------------
    def _map_shared_bits(self, num_bytes: int, shared: bool, shared_name: Optional[str]):
        """Map the bit vector into a shared segment (or fall back privately).

        Segment layout: :data:`_SHM_HEADER` (magic, num_bits, num_hashes)
        followed by the bit bytes.  The header is written after the payload
        region exists zeroed, and attachers validate it, so adopting a
        segment with mismatched geometry fails loudly instead of silently
        corrupting probes.
        """
        total = _SHM_HEADER.size + num_bytes
        buffer: Optional[SharedBuffer] = None
        if shared_name is not None:
            if shared:
                try:
                    buffer = SharedBuffer.create(total, name=shared_name, shared=True)
                except FileExistsError:
                    buffer = SharedBuffer.attach(shared_name, total)
            else:
                buffer = SharedBuffer.attach(shared_name, total)
        else:
            buffer = SharedBuffer.create(total, shared=True)
        if buffer.name is None:
            # Platform without shared memory: keep the plain private backing.
            return bytearray(num_bytes)
        view = memoryview(buffer.buf)
        if bytes(view[:4]) == b"\x00\x00\x00\x00":
            # Freshly created (create zeroes the payload): stamp geometry.
            _SHM_HEADER.pack_into(view, 0, _SHM_MAGIC, self.num_bits, self.num_hashes)
        else:
            magic, seg_bits, seg_hashes = _SHM_HEADER.unpack_from(view, 0)
            if magic != _SHM_MAGIC or seg_bits != self.num_bits or seg_hashes != self.num_hashes:
                name = buffer.name
                view.release()
                buffer.close()
                raise ValueError(
                    f"shared segment {name!r} holds a filter with "
                    f"bits={seg_bits} hashes={seg_hashes}; "
                    f"this filter needs bits={self.num_bits} hashes={self.num_hashes}"
                )
        self._buffer = buffer
        return view[_SHM_HEADER.size:]

    @property
    def shared_segment_name(self) -> Optional[str]:
        """Name of the backing shared segment (``None`` when private)."""
        buffer = self._buffer
        return buffer.name if buffer is not None else None

    def close_shared(self) -> None:
        """Detach from the shared segment.  Terminal: do not use the filter after.

        The single-key kernels stay bound to the released view, so any
        probe after this raises -- closing is for teardown paths only.
        Idempotent; a no-op for private backings.
        """
        buffer, self._buffer = self._buffer, None
        if buffer is not None:
            # Drop the numpy view first: it exports the memoryview's buffer,
            # and release() raises BufferError while exports are live.
            self._np_bits = None
            bits, self._bits = self._bits, bytearray(0)
            if isinstance(bits, memoryview):
                bits.release()
            buffer.close()

    def unlink_shared(self) -> None:
        """Detach *and* remove the backing segment from the system."""
        buffer, self._buffer = self._buffer, None
        if buffer is not None:
            self._np_bits = None
            bits, self._bits = self._bits, bytearray(0)
            if isinstance(bits, memoryview):
                bits.release()
            buffer.unlink()

    # -- internals -------------------------------------------------------------
    def _hash_pair(self, key: bytes) -> Tuple[int, int]:
        """``(h1, h2)`` for Kirsch-Mitzenmacher double hashing.

        ``h2`` is forced odd so the probe sequence cycles through all bit
        positions for power-of-two ``num_bits`` as well.
        """
        if isinstance(key, str):
            key = key.encode("utf-8")
        if self.digest_keys and len(key) >= _DIGEST_KEY_MIN_BYTES:
            return (
                int.from_bytes(key[:8], "big"),
                int.from_bytes(key[8:16], "big") | 1,
            )
        digest = hashlib.sha256(key).digest()
        return (
            int.from_bytes(digest[:8], "big"),
            int.from_bytes(digest[8:16], "big") | 1,
        )

    def _indexes(self, key: bytes) -> Iterable[int]:
        """Bit indexes probed for ``key`` (kept for introspection/tests)."""
        h1, h2 = self._hash_pair(key)
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def _set_bit(self, index: int) -> None:
        self._bits[index >> 3] |= 1 << (index & 7)

    def _get_bit(self, index: int) -> bool:
        return bool(self._bits[index >> 3] & (1 << (index & 7)))

    # -- public API -------------------------------------------------------------
    #
    # The probe loops below walk the Kirsch-Mitzenmacher sequence
    # ``(h1 + i * h2) % num_bits`` incrementally: reduce ``h1``/``h2`` once,
    # then add-and-conditionally-subtract per index.  That replaces a 64-bit
    # multiply and wide modulo per probe with small-int arithmetic while
    # visiting exactly the indexes ``_indexes`` yields.  The batch methods
    # additionally special-case 20-byte keys (SHA-1 fingerprints, the hot
    # case) to derive both hash words from a single ``int.from_bytes``.

    def add(self, key: bytes) -> None:
        """Insert ``key`` into the filter."""
        add_one = self._add_one
        if add_one is not None:
            add_one(key)
            self._count += 1
            return
        h1, h2 = self._hash_pair(key)
        bits = self._bits
        num_bits = self.num_bits
        index = h1 % num_bits
        step = h2 % num_bits
        for _ in range(self.num_hashes):
            bits[index >> 3] |= 1 << (index & 7)
            index += step
            if index >= num_bits:
                index -= num_bits
        self._count += 1

    def _packed_words(self, keys) -> Optional[tuple]:
        """Flat ``(h1, h2)`` words when ``keys`` can take the packed path.

        Eligible inputs: anything exposing ``hash_words()`` (a
        :class:`~repro.core.digest_batch.DigestBatch`, which has the words
        cached for the whole routed batch), or a non-empty list/tuple where
        *every* element is a 20-byte ``bytes`` digest.  The per-key length
        check is mandatory -- mixed-length keys that merely sum to a
        multiple of 20 would otherwise hash wrong silently.  Returns
        ``None`` when the batch must go through the scalar oracle instead
        (non-digest keys, ``digest_keys=False``, or an un-unrollable shape).
        """
        if self._kernels is None or not self.digest_keys:
            return None
        hash_words = getattr(keys, "hash_words", None)
        if hash_words is not None:
            return hash_words()
        if type(keys) in (list, tuple) and keys:
            for key in keys:
                if type(key) is not bytes or len(key) != 20:
                    return None
            return digest_hash_words(b"".join(keys), len(keys))
        return None

    # -- columnar numpy kernels --------------------------------------------------
    @property
    def columnar_eligible(self) -> bool:
        """Whether the columnar kernels can serve this filter's batches.

        Requires the numpy backend, digest keys, an unrollable shape (the
        scalar single-key kernels double as the columnar family's re-probe
        and insert tail), and exact uint64 probe arithmetic.
        """
        return (
            HAVE_NUMPY
            and self._kernels is not None
            and self.digest_keys
            and self.num_bits < _NP_MAX_BITS
        )

    def np_bits(self):
        """Writable ``np.uint8`` view of the live bit vector (zero-copy).

        ``np.frombuffer`` over the same ``bytearray``/shared-memory
        ``memoryview`` the scalar kernels mutate, so for a shm-backed
        filter every attached process (serving workers, sweep pools)
        gathers against one physical copy.  The view is cached; teardown
        (:meth:`close_shared`/:meth:`unlink_shared`) drops it before
        releasing the mapping.  ``None`` when the numpy backend is off.
        """
        view = self._np_bits
        if view is None:
            if not HAVE_NUMPY:
                return None
            view = self._np_bits = _np.frombuffer(self._bits, dtype=_np.uint8)
        return view

    def _packed_words_np(self, keys):
        """``(n, 2)`` uint64 word array when ``keys`` can take the columnar path.

        Same eligibility as :meth:`_packed_words` plus: the numpy backend
        must be active and ``num_bits`` small enough for exact uint64
        probe arithmetic.  ``None`` means fall back (packed or scalar).
        """
        if (
            not HAVE_NUMPY
            or self._kernels is None
            or not self.digest_keys
            or self.num_bits >= _NP_MAX_BITS
        ):
            return None
        hash_words_np = getattr(keys, "hash_words_np", None)
        if hash_words_np is not None:
            return hash_words_np()
        if type(keys) in (list, tuple) and keys:
            for key in keys:
                if type(key) is not bytes or len(key) != 20:
                    return None
            return digest_hash_words_np(b"".join(keys), len(keys))
        return None

    def _probe_indexes_np(self, words):
        """``(num_hashes, n)`` probe-index matrix, scalar-arithmetic-exact.

        The scalar kernels walk ``index += step; if index >= nb: index -=
        nb`` from ``index0 = h1 % nb`` with ``step = (h2 | 1) % nb``; since
        both operands stay below ``nb``, the walk is exactly ``(index0 +
        i * step) % nb``, which vectorizes as one broadcast multiply-add
        and one modulo over the whole ``(num_hashes, n)`` plane (no
        per-round Python loop).  ``_NP_MAX_BITS`` bounds ``nb`` so the
        ``uint64`` products cannot overflow.  Every visited index -- and
        therefore every bit touched -- is identical to the packed-Python
        path.
        """
        nb = _np.uint64(self.num_bits)
        index = words[:, 0] % nb
        num_hashes = self.num_hashes
        if num_hashes == 1:
            return index.reshape(1, -1)
        step = (words[:, 1] | _np.uint64(1)) % nb
        rounds = _np.arange(num_hashes, dtype=_np.uint64).reshape(-1, 1)
        return (index[_np.newaxis, :] + rounds * step[_np.newaxis, :]) % nb

    def _add_words_np(self, words) -> None:
        indexes = self._probe_indexes_np(words)
        byte_idx = (indexes >> _np.uint64(3)).astype(_np.intp).ravel()
        masks = _np.left_shift(
            _np.uint8(1), (indexes & _np.uint64(7)).astype(_np.uint8)
        ).ravel()
        # bitwise_or.at, not fancy-assign: duplicate byte indexes within a
        # batch must all land, exactly as the scalar loop ORs them in turn.
        _np.bitwise_or.at(self.np_bits(), byte_idx, masks)

    def _contains_words_np(self, words) -> List[bool]:
        indexes = self._probe_indexes_np(words)
        byte_idx = (indexes >> _np.uint64(3)).astype(_np.intp)
        masks = _np.left_shift(
            _np.uint8(1), (indexes & _np.uint64(7)).astype(_np.uint8)
        )
        hits = (self.np_bits()[byte_idx] & masks) != 0
        return hits.all(axis=0).tolist()

    def _prefetch_probe_np(self, words):
        """``(verdicts, rows)`` for the columnar fused node kernels.

        ``verdicts`` is the whole batch's membership list against the
        *current* bits; ``rows[i]`` is key ``i``'s full probe-index list
        when its verdict is ``False`` -- the fused kernel re-checks
        staleness and sets the negative-path bits straight from it, so no
        per-key hashing or modulo survives on the columnar path -- and
        ``None`` for prefetched positives, which never need their indexes
        again (bits are only ever set, so a ``True`` cannot go stale).
        Materializing rows only for the negatives keeps the duplicate-
        heavy steady state (the paper's headline workload) almost free.
        """
        indexes = self._probe_indexes_np(words)
        byte_idx = (indexes >> _np.uint64(3)).astype(_np.intp)
        masks = _np.left_shift(
            _np.uint8(1), (indexes & _np.uint64(7)).astype(_np.uint8)
        )
        hits = (self.np_bits()[byte_idx] & masks) != 0
        verdict = hits.all(axis=0)
        rows: List = [None] * indexes.shape[1]
        false_cols = _np.flatnonzero(~verdict)
        if false_cols.size:
            false_rows = indexes[:, false_cols].T.tolist()
            for col, row in zip(false_cols.tolist(), false_rows):
                rows[col] = row
        return verdict.tolist(), rows

    def add_many_np(self, keys: Iterable[bytes]) -> None:
        """Columnar insert regardless of batch size (bench/test entry point).

        Bit-identical to :meth:`add_many_scalar`; ineligible batches (or a
        missing numpy backend) defer to :meth:`add_many`.
        """
        words = self._packed_words_np(keys)
        if words is None:
            self.add_many(keys)
            return
        self._add_words_np(words)
        self._count += int(words.shape[0])

    def contains_many_np(self, keys: Sequence[bytes]) -> List[bool]:
        """Columnar membership probe (bench/test entry point)."""
        words = self._packed_words_np(keys)
        if words is None:
            return self.contains_many(keys)
        return self._contains_words_np(words)

    def add_many(self, keys: Iterable[bytes]) -> None:
        """Insert many keys with per-call overhead amortised across the batch.

        Packed fast path: a ``DigestBatch`` or an all-20-byte-digest batch
        derives every hash word with one ``struct.unpack`` and sets bits
        through the words kernel; with the numpy backend active, batches of
        at least ``REPRO_NUMPY_MIN_BATCH`` digests run the columnar kernel
        instead (same bits).  Anything else falls through to
        :meth:`add_many_scalar` -- same bits, same count, measured per key.
        """
        if (
            HAVE_NUMPY
            and getattr(keys, "__len__", None) is not None
            and len(keys) >= NUMPY_MIN_BATCH
        ):
            words_np = self._packed_words_np(keys)
            if words_np is not None:
                self._add_words_np(words_np)
                self._count += int(words_np.shape[0])
                return
        words = self._packed_words(keys)
        if words is not None:
            self._kernels[5](words, self._bits)
            self._count += len(words) >> 1
            return
        if hasattr(keys, "hash_words"):  # DigestBatch on a non-packed shape
            keys = keys.digests
        self.add_many_scalar(keys)

    def add_digests(self, digests: Sequence[bytes]) -> None:
        """Insert keys the caller guarantees are 20-byte digests.

        Trusted-input variant of :meth:`add_many` for internal callers
        whose keys come straight out of another digest-keyed structure
        (replica propagation, recovery replay): it skips the per-key
        shape validation and packs/unpacks the batch directly.  Falls
        back to the scalar oracle when the filter is not digest-keyed or
        has an un-unrollable shape.  Same bits, same count as
        :meth:`add_many` for the same keys.
        """
        kernels = self._kernels
        if kernels is None or not self.digest_keys:
            self.add_many_scalar(digests)
            return
        count = len(digests)
        if not count:
            return
        if HAVE_NUMPY and count >= NUMPY_MIN_BATCH and self.num_bits < _NP_MAX_BITS:
            self._add_words_np(digest_hash_words_np(b"".join(digests), count))
            self._count += count
            return
        kernels[5](digest_hash_words(b"".join(digests), count), self._bits)
        self._count += count

    def add_many_scalar(self, keys: Iterable[bytes]) -> None:
        """Per-key insert loop: the reference oracle for the packed path.

        This is the pre-vectorization :meth:`add_many` body, retained
        verbatim; the differential tests assert the packed kernels leave
        the bit vector byte-identical to this.
        """
        if self._kernels is not None:
            if not isinstance(keys, (list, tuple)):
                keys = list(keys)
            self._kernels[1](keys, self._bits, None, self._hash_pair, self.digest_keys)
            self._count += len(keys)
            return
        # Generic loop for shapes too large to unroll.
        bits = self._bits
        num_bits = self.num_bits
        num_hashes = self.num_hashes
        hash_pair = self._hash_pair
        inserted = 0
        for key in keys:
            h1, h2 = hash_pair(key)
            index = h1 % num_bits
            step = h2 % num_bits
            for _ in range(num_hashes):
                bits[index >> 3] |= 1 << (index & 7)
                index += step
                if index >= num_bits:
                    index -= num_bits
            inserted += 1
        self._count += inserted

    def update(self, keys: Iterable[bytes]) -> None:
        """Insert many keys (alias of :meth:`add_many`)."""
        self.add_many(keys)

    def __contains__(self, key: bytes) -> bool:
        """``True`` if the key *may* have been added, ``False`` if definitely not."""
        contains_one = self._contains_one
        if contains_one is not None:
            return contains_one(key)
        h1, h2 = self._hash_pair(key)
        bits = self._bits
        num_bits = self.num_bits
        index = h1 % num_bits
        step = h2 % num_bits
        for _ in range(self.num_hashes):
            if not bits[index >> 3] & (1 << (index & 7)):
                return False
            index += step
            if index >= num_bits:
                index -= num_bits
        return True

    def contains_many(self, keys: Sequence[bytes]) -> List[bool]:
        """Membership verdicts for a batch of keys, in input order.

        Takes the columnar numpy path for eligible batches of at least
        ``REPRO_NUMPY_MIN_BATCH`` keys, else the packed words path for
        ``DigestBatch``/all-digest batches (see :meth:`add_many`);
        otherwise defers to the scalar oracle.
        """
        if (
            HAVE_NUMPY
            and getattr(keys, "__len__", None) is not None
            and len(keys) >= NUMPY_MIN_BATCH
        ):
            words_np = self._packed_words_np(keys)
            if words_np is not None:
                return self._contains_words_np(words_np)
        words = self._packed_words(keys)
        if words is not None:
            verdicts: List[bool] = []
            self._kernels[4](words, self._bits, verdicts.append)
            return verdicts
        if hasattr(keys, "hash_words"):  # DigestBatch on a non-packed shape
            keys = keys.digests
        return self.contains_many_scalar(keys)

    def contains_many_scalar(self, keys: Sequence[bytes]) -> List[bool]:
        """Per-key probe loop: the reference oracle for the packed path."""
        verdicts: List[bool] = []
        if self._kernels is not None:
            self._kernels[0](keys, self._bits, verdicts.append, self._hash_pair, self.digest_keys)
            return verdicts
        # Generic loop for shapes too large to unroll.
        bits = self._bits
        num_bits = self.num_bits
        num_hashes = self.num_hashes
        hash_pair = self._hash_pair
        append = verdicts.append
        for key in keys:
            h1, h2 = hash_pair(key)
            index = h1 % num_bits
            step = h2 % num_bits
            for _ in range(num_hashes):
                if not bits[index >> 3] & (1 << (index & 7)):
                    append(False)
                    break
                index += step
                if index >= num_bits:
                    index -= num_bits
            else:
                append(True)
        return verdicts

    def might_contain(self, key: bytes) -> bool:
        """Alias for ``key in filter`` with an explicit name."""
        return key in self

    @property
    def count(self) -> int:
        """Number of insertions performed (not distinct keys)."""
        return self._count

    @property
    def bit_size(self) -> int:
        """Size of the bit vector in bits."""
        return self.num_bits

    @property
    def memory_bytes(self) -> int:
        """Approximate memory footprint of the bit vector."""
        return len(self._bits)

    def raw_bits(self):
        """The live bit vector, for fused external kernels.

        The hash node's fused batch kernel (:mod:`repro.core.bucket_kernel`)
        probes and sets bits inline with the exact arithmetic of this
        filter's own kernels; it reads the vector once per batch through
        this accessor.  The object identity is stable for the filter's
        lifetime (``clear``/``restore_payload`` mutate in place), matching
        the contract the pre-bound single-key kernels rely on.
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

    def estimated_false_positive_rate(self) -> float:
        """Estimate of the current false-positive probability."""
        return self.fill_ratio() ** self.num_hashes

    def estimated_cardinality(self) -> int:
        """Estimate of distinct keys inserted, from the fill ratio.

        The standard ``-m/k * ln(1 - fill)`` estimator.  Unlike
        :attr:`count` (raw insertions) this approximates *distinct* keys,
        which is what :meth:`union` needs to avoid double-counting overlap.
        """
        fill = self.fill_ratio()
        if fill <= 0.0:
            return 0
        if fill >= 1.0:  # saturated: the estimator diverges; report capacity
            return self.num_bits
        return int(round(-(self.num_bits / self.num_hashes) * math.log(1.0 - fill)))

    def clear(self) -> None:
        """Remove all entries (reset every bit).

        Zeroes the bit vector in place: the single-key kernels are bound to
        the bytearray object at construction, so it must never be replaced.
        """
        self._bits[:] = bytes(len(self._bits))
        self._count = 0

    def snapshot_payload(self) -> bytes:
        """Copy of the raw bit vector, for persistence snapshots."""
        return bytes(self._bits)

    def restore_payload(self, payload: bytes, count: int) -> None:
        """Overwrite the bit vector from a snapshot payload.

        The copy happens in place (the single-key kernels are bound to the
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

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise OR of two filters with identical parameters.

        The merged ``count`` is a *clamped cardinality estimate*, not the
        sum of the inputs' insertion counts: summing double-counts every
        key present in both filters (two filters holding the same 500 keys
        used to report ``count == 1000``).  The estimate is exact when one
        side is empty and bounded by ``[max(counts), sum(counts)]`` always;
        like :attr:`count` itself it counts insertions, not a guaranteed
        distinct-key figure.
        """
        if (self.num_bits, self.num_hashes, self.digest_keys) != (
            other.num_bits,
            other.num_hashes,
            other.digest_keys,
        ):
            raise ValueError("cannot union bloom filters with different parameters")
        merged = BloomFilter(
            expected_items=self.expected_items,
            false_positive_rate=self.false_positive_rate,
            num_bits=self.num_bits,
            num_hashes=self.num_hashes,
            digest_keys=self.digest_keys,
        )
        # In-place fill (merged's single-key kernels are bound to its bit
        # vector, so the object must not be replaced), OR-ing 8 bytes per
        # step over memoryview word casts instead of building a throwaway
        # generator-fed ``bytes`` of the whole vector.
        a_view = memoryview(self._bits)
        b_view = memoryview(other._bits)
        out_view = memoryview(merged._bits)
        word_bytes = len(a_view) - (len(a_view) & 7)
        if word_bytes:
            a_words = a_view[:word_bytes].cast("Q")
            b_words = b_view[:word_bytes].cast("Q")
            out_words = out_view[:word_bytes].cast("Q")
            for i in range(len(a_words)):
                out_words[i] = a_words[i] | b_words[i]
        for i in range(word_bytes, len(a_view)):
            out_view[i] = a_view[i] | b_view[i]
        low = max(self._count, other._count)
        high = self._count + other._count
        merged._count = min(high, max(low, merged.estimated_cardinality()))
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BloomFilter bits={self.num_bits} hashes={self.num_hashes} "
            f"count={self._count} fill={self.fill_ratio():.3f}>"
        )
