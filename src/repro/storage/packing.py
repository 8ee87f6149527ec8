"""Packed-digest hash-word extraction shared by the vectorized kernels.

A 20-byte SHA-1 digest carries both Kirsch-Mitzenmacher hash words in its
own bytes (see :mod:`repro.storage.bloom`): bytes ``[0:8)`` are ``h1`` and
bytes ``[8:16)`` are the raw ``h2``.  For a *batch* of digests packed back
to back, one ``struct.unpack`` with a cached ``">QQ4x"*n`` format yields
every word pair in a single C call -- this is the primitive underneath
:class:`repro.core.digest_batch.DigestBatch` and the packed bloom batch
functions.  Lives in the storage layer so both the storage structures and
the core batch object can import it without a layering cycle.
"""

from __future__ import annotations

import struct

__all__ = ["DIGEST_BYTES", "digest_hash_words", "digest_words", "split_digests"]

DIGEST_BYTES = 20

_WORDS_ONE = "QQ4x"
_DIGEST_ONE = f"{DIGEST_BYTES}s"
_FORMAT_CACHE: dict = {}

#: ``(h1, h2)`` of one digest: ``digest_hash_words`` for a single key, without
#: the format lookup.  A key of any other length raises ``struct.error``.
digest_words = struct.Struct(">" + _WORDS_ONE).unpack


def _repeated_struct(one: str, count: int) -> struct.Struct:
    cached = _FORMAT_CACHE.get((one, count))
    if cached is None:
        cached = _FORMAT_CACHE[one, count] = struct.Struct(">" + one * count)
    return cached


def split_digests(blob) -> tuple:
    """The 20-byte digests of a packed blob, sliced by one ``struct`` call.

    Raises :class:`ValueError` when the blob is not a whole number of digests.
    """
    count, rest = divmod(len(blob), DIGEST_BYTES)
    if rest:
        raise ValueError(
            f"digest blob of {len(blob)} bytes is not a multiple of {DIGEST_BYTES}"
        )
    return _repeated_struct(_DIGEST_ONE, count).unpack(blob)


def digest_hash_words(blob, count: int) -> tuple:
    """``(h1_0, h2_0, h1_1, h2_1, ...)`` for ``count`` packed 20-byte digests.

    Equal to ``(int.from_bytes(d[:8], "big"), int.from_bytes(d[8:16],
    "big"))`` per digest ``d`` -- i.e. exactly the words the scalar kernels
    derive -- but computed for the whole batch in one call.
    """
    return _repeated_struct(_WORDS_ONE, count).unpack(blob)

