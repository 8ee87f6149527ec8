"""Single-node (centralized) hash server.

The paper's motivation experiment (Figure 1) contrasts a one-node "server"
with multi-node clusters: a centralized fingerprint service saturates as
concurrent backup requests grow.  :class:`SingleNodeHashServer` is literally
an SHHC hybrid node used alone -- same RAM+SSD layout, no partitioning --
which makes the comparison a pure scaling comparison rather than an
implementation one.  It doubles as the ``cluster of one`` configuration in
the scalability experiments and as a centralized baseline for the library
API.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, List, Optional

from ..core.config import HashNodeConfig
from ..core.digest_batch import DigestBatch
from ..core.hash_node import HybridHashNode
from ..dedup.fingerprint import Fingerprint, column_builder
from ..dedup.index import ChunkIndex, ChunkLocation, LookupResult
from ..simulation.engine import Simulator

__all__ = ["SingleNodeHashServer"]

_build_results = column_builder(LookupResult)
#: :class:`ChunkLocation` is frozen, so every result can share one.
_NO_LOCATION = ChunkLocation()


class SingleNodeHashServer(ChunkIndex):
    """A centralized hybrid (RAM+SSD) fingerprint server."""

    def __init__(
        self,
        config: Optional[HashNodeConfig] = None,
        sim: Optional[Simulator] = None,
        name: str = "central-hash-server",
    ) -> None:
        self.name = name
        self.node = HybridHashNode(name, config, sim)

    def lookup(self, fingerprint: Fingerprint) -> LookupResult:
        return self.lookup_batch([fingerprint])[0]

    def lookup_batch(self, fingerprints: Iterable[Fingerprint]) -> List[LookupResult]:
        """The :class:`LookupResult` view over the node's batch contract."""
        fingerprints = list(fingerprints)
        node = self.node
        tiers, service_times, _new_pairs = node.serve_bucket_verdicts(
            DigestBatch.from_fingerprints(fingerprints)
        )
        node.lookup_latency.add_many(service_times)
        return _build_results(
            len(tiers), fingerprints, map(bool, tiers), repeat(_NO_LOCATION), service_times,
            repeat(self.name),
        )

    def __len__(self) -> int:
        return len(self.node)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint in self.node

    # -- convenience ------------------------------------------------------------------------
    def snapshot(self):
        """Underlying node statistics (tier hits, destages, ...)."""
        return self.node.snapshot()

    def mean_latency(self) -> float:
        """Mean per-lookup service time observed so far (seconds)."""
        times = self.node.lookup_latency
        return times.total / times.count if times.count else 0.0
