"""Upload plans.

The web front-end answers every client backup request with an *upload plan*
(paper §III.A): the subset of the submitted chunks that are not yet stored in
the cloud and therefore must be transmitted.  Everything else only needs a
reference.  The plan also carries the bandwidth-savings accounting the paper
motivates (only ~25 % of data is unique).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import not_
from typing import List, Sequence

from ..dedup.fingerprint import Fingerprint

__all__ = ["UploadPlan"]


@dataclass
class UploadPlan:
    """Which chunks a client must upload, derived from cluster lookup verdicts."""

    client_id: str
    to_upload: List[Fingerprint] = field(default_factory=list)
    already_stored: List[Fingerprint] = field(default_factory=list)

    @classmethod
    def from_tiers(
        cls, client_id: str, fingerprints: Sequence[Fingerprint], tiers: Sequence[int]
    ) -> "UploadPlan":
        """Build a plan from a batch's fingerprints and their tier codes.

        A truthy tier (:data:`~repro.core.protocol.SERVED_FROM_TIER`) is a
        duplicate; both lists keep the batch's order.
        """
        return cls(
            client_id,
            list(compress(fingerprints, map(not_, tiers))),
            list(compress(fingerprints, tiers)),
        )

    # -- accounting --------------------------------------------------------------------
    @property
    def total_chunks(self) -> int:
        return len(self.to_upload) + len(self.already_stored)

    @property
    def upload_bytes(self) -> int:
        """Bytes the client actually has to send."""
        return sum(fp.chunk_size for fp in self.to_upload)

    @property
    def logical_bytes(self) -> int:
        """Bytes the backup represents before deduplication."""
        return self.upload_bytes + sum(fp.chunk_size for fp in self.already_stored)

    @property
    def bandwidth_savings(self) -> float:
        """Fraction of logical bytes that do not need to cross the WAN."""
        logical = self.logical_bytes
        if logical == 0:
            return 0.0
        return 1.0 - self.upload_bytes / logical

    def extend(self, other: "UploadPlan") -> None:
        """Merge ``other`` (e.g. the next batch's plan) into this one, in place.

        Both lists keep their order: this plan's entries, then ``other``'s.
        """
        if other.client_id != self.client_id:
            raise ValueError("cannot merge plans from different clients")
        self.to_upload.extend(other.to_upload)
        self.already_stored.extend(other.already_stored)
