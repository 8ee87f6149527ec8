"""Deterministic random-number streams for reproducible experiments.

Every stochastic component (workload generators, arrival processes, device
jitter) draws from its own named stream derived from a single experiment
seed, so adding a new random consumer does not perturb the draws seen by
existing ones -- a standard requirement for comparable simulation runs.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RandomStreams", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream ``name``.

    Uses SHA-256 so that child seeds are uncorrelated even for adjacent
    master seeds or similar names.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A family of independent, named :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.master_seed, name))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child family whose master seed is derived from ``name``."""
        return RandomStreams(derive_seed(self.master_seed, name))

    def reset(self) -> None:
        """Re-seed every existing stream back to its initial state."""
        for name in list(self._streams):
            self._streams[name] = random.Random(derive_seed(self.master_seed, name))
