"""Fingerprint computation and representation.

SHHC identifies chunks by their SHA-1 digest (20 bytes), the convention used
throughout the deduplication literature the paper builds on.  A fingerprint
also carries the chunk size so upload planning and capacity accounting do not
need the raw data.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Callable, Iterable, List

__all__ = [
    "FINGERPRINT_BYTES",
    "Fingerprint",
    "column_builder",
    "fingerprint_data",
    "synthetic_fingerprint",
]

#: Size of a SHA-1 digest in bytes.
FINGERPRINT_BYTES = 20


def column_builder(cls: type) -> Callable[..., List]:
    """``build(n, *columns) -> [cls, ...]``: bulk-construct a slotted frozen dataclass.

    The generated ``__init__`` of a frozen dataclass pays a Python frame
    plus one ``object.__setattr__`` per field.  ``build`` allocates ``n``
    bare instances and fills them one field at a time through the class's
    own slot descriptors -- a C-level ``map`` per column (any iterable;
    ``repeat(x)`` for a constant), no bytecode per key, no allocation beyond
    the instances.  ``__post_init__`` does not run: callers pass columns
    whose validity is established elsewhere.  Setters follow ``fields(cls)``
    order, so a new field changes the arity here instead of leaving a slot
    unset; the objects are indistinguishable from constructor-built ones
    (pinned by tests/test_value_types.py).
    """
    setters = [getattr(cls, field.name).__set__ for field in fields(cls)]
    new = cls.__new__

    def build(n: int, *columns: Iterable) -> List:
        if len(columns) != len(setters):
            raise TypeError(f"{cls.__name__} has {len(setters)} fields, got {len(columns)} columns")
        objects = list(map(new, repeat(cls, n)))
        for setter, column in zip(setters, columns):
            deque(map(setter, objects, column), maxlen=0)
        return objects

    return build


@dataclass(frozen=True, slots=True)
class Fingerprint:
    """A chunk identity: SHA-1 digest plus the chunk's length in bytes."""

    digest: bytes
    chunk_size: int

    def __post_init__(self) -> None:
        if len(self.digest) != FINGERPRINT_BYTES:
            raise ValueError(f"digest must be {FINGERPRINT_BYTES} bytes, got {len(self.digest)}")
        if self.chunk_size < 0:
            raise ValueError("chunk_size must be non-negative")

    @property
    def hex(self) -> str:
        """Hexadecimal rendering of the digest."""
        return self.digest.hex()

    def prefix_int(self, bits: int = 64) -> int:
        """The top ``bits`` of the digest as an integer (used for routing)."""
        if not 1 <= bits <= FINGERPRINT_BYTES * 8:
            raise ValueError("bits must be within [1, 160]")
        value = int.from_bytes(self.digest, "big")
        return value >> (FINGERPRINT_BYTES * 8 - bits)

    def __str__(self) -> str:
        return f"{self.hex[:12]}…({self.chunk_size}B)"


def fingerprint_data(data: bytes, chunk_size: int | None = None) -> Fingerprint:
    """Compute the SHA-1 fingerprint of ``data``."""
    digest = hashlib.sha1(data).digest()
    return Fingerprint(digest=digest, chunk_size=len(data) if chunk_size is None else chunk_size)


def synthetic_fingerprint(identity: int, chunk_size: int = 8192) -> Fingerprint:
    """Deterministically derive a fingerprint from an integer chunk identity.

    Workload generators use this to produce realistic 20-byte digests without
    materialising chunk data: the same identity always maps to the same
    digest, so redundancy structure is preserved, and digests remain uniformly
    distributed (they are real SHA-1 outputs).
    """
    digest = hashlib.sha1(identity.to_bytes(16, "big", signed=False)).digest()
    return Fingerprint(digest=digest, chunk_size=chunk_size)
