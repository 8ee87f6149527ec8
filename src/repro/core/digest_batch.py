"""Contiguous digest-batch buffers for the vectorized data plane.

A routed sub-batch used to travel as a list of :class:`Fingerprint`
objects, and every layer below re-derived the same per-key facts from
them: the 20-byte digest, the two 64-bit hash words the bloom filter
probes with, and the chunk size.  :class:`DigestBatch` carries the
batch as one packed buffer -- the 20-byte digests back to back -- plus
parallel chunk sizes, and derives *all* hash words for the whole batch
with a single ``struct.unpack`` call: bytes ``[0:8)`` of each digest are
the bloom ``h1`` word and bytes ``[8:16)`` the raw ``h2`` word, the words
the filter's per-key functions unpack, so verdicts stay bit-identical.

The buffer layout is also what the shared-memory trace cache stores, so a
sweep worker can rehydrate a workload from a segment without re-running
the generator.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..dedup.fingerprint import Fingerprint
from ..storage.packing import DIGEST_BYTES, digest_hash_words, split_digests

__all__ = ["DigestBatch", "DIGEST_BYTES", "digest_hash_words"]


class DigestBatch:
    """A batch of fingerprints as one contiguous digest buffer.

    Construct via :meth:`from_fingerprints` (cluster dispatch: chunk sizes
    are read off the ``Fingerprint`` objects on first use) or
    :meth:`from_blob` (serving workers: digests arrive already packed on
    the wire and no ``Fingerprint`` objects are ever built).  Both take
    keys that are digests by construction and check none of them; a batch
    built directly from a list refuses any key that is not a 20-byte
    digest with :class:`ValueError`, by the bloom filter's batch check
    (the joined length, then the longest key).

    ``chunk_sizes`` is either one ``int`` applied to every digest or a
    per-digest sequence.  ``hash_words()`` is computed lazily and cached:
    buckets whose keys are all answered from the RAM LRU never pay for it.
    """

    __slots__ = ("digests", "blob", "_chunk_sizes", "_fingerprints", "_words")

    def __init__(self, digests: List[bytes], chunk_sizes: Union[int, Sequence[int]]) -> None:
        blob = b"".join(digests)
        if (len(blob) != DIGEST_BYTES * len(digests)
                or max(map(len, digests), default=DIGEST_BYTES) != DIGEST_BYTES):
            raise ValueError(f"DigestBatch keys are {DIGEST_BYTES}-byte digests; these are not")
        self._fill(digests, chunk_sizes, blob, None)

    def _fill(self, digests, chunk_sizes, blob, fingerprints) -> None:
        self.digests = digests
        self.blob = blob
        self._chunk_sizes = chunk_sizes
        self._fingerprints = fingerprints
        self._words: Optional[tuple] = None

    # -- construction -----------------------------------------------------------
    @classmethod
    def _trusted(cls, digests, chunk_sizes, blob=None, fingerprints=None) -> "DigestBatch":
        """A batch of keys that are digests by construction, unchecked."""
        batch = cls.__new__(cls)
        batch._fill(digests, chunk_sizes, blob, fingerprints)
        return batch

    @classmethod
    def from_fingerprints(cls, fingerprints: Sequence[Fingerprint],
                          digests: Optional[List[bytes]] = None) -> "DigestBatch":
        """Wrap routed fingerprints; ``digests`` may be pre-extracted.

        Chunk sizes stay on the fingerprints until :attr:`chunk_sizes` is
        first read (the node's batch core reads it once per served batch).
        """
        if type(fingerprints) is not list:
            fingerprints = list(fingerprints)
        if digests is None:
            digests = [fingerprint.digest for fingerprint in fingerprints]
        return cls._trusted(digests, None, fingerprints=fingerprints)

    @classmethod
    def from_blob(cls, blob: bytes,
                  chunk_sizes: Union[int, Sequence[int]]) -> "DigestBatch":
        """Wrap a wire blob of back-to-back 20-byte digests."""
        digests = list(split_digests(blob))
        if not isinstance(chunk_sizes, int) and len(chunk_sizes) != len(digests):
            raise ValueError(
                f"got {len(chunk_sizes)} chunk sizes for {len(digests)} digests"
            )
        return cls._trusted(digests, chunk_sizes, blob)

    # -- derived views ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.digests)

    @property
    def chunk_sizes(self) -> Union[int, Sequence[int]]:
        """Per-digest chunk sizes (materialised on first access)."""
        sizes = self._chunk_sizes
        if sizes is None:
            sizes = self._chunk_sizes = [
                fingerprint.chunk_size for fingerprint in self._fingerprints
            ]
        return sizes

    def packed(self) -> bytes:
        """The contiguous digest buffer (built once if constructed from lists)."""
        blob = self.blob
        if blob is None:
            blob = self.blob = b"".join(self.digests)
        return blob

    def hash_words(self) -> tuple:
        """Flat ``(h1, h2)`` word pairs for every digest (cached)."""
        words = self._words
        if words is None:
            words = self._words = digest_hash_words(self.packed(), len(self.digests))
        return words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DigestBatch n={len(self.digests)}>"
