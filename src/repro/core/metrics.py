"""Cluster-wide metrics and load-balance analysis.

Aggregates per-node :class:`~repro.core.hash_node.NodeSnapshot` data into the
quantities the paper reports: total throughput, tier hit breakdown, and the
hash-entry storage distribution of Figure 6 (each of 4 nodes holding ~25 % of
entries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .hash_node import NodeSnapshot

__all__ = ["LoadBalanceReport", "ClusterMetrics"]


@dataclass
class LoadBalanceReport:
    """Distribution of stored hash entries (or lookups) across nodes."""

    counts: Dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fractions(self) -> Dict[str, float]:
        """Per-node share of the total (the Figure 6 percentages)."""
        total = self.total
        if total == 0:
            return {node: 0.0 for node in self.counts}
        return {node: count / total for node, count in self.counts.items()}

    @property
    def mean(self) -> float:
        return self.total / len(self.counts) if self.counts else 0.0

    @property
    def coefficient_of_variation(self) -> float:
        """Stddev / mean of per-node counts (0.0 is perfectly balanced)."""
        if not self.counts or self.mean == 0:
            return 0.0
        variance = sum((count - self.mean) ** 2 for count in self.counts.values()) / len(self.counts)
        return math.sqrt(variance) / self.mean

    @property
    def max_over_mean(self) -> float:
        """Peak-to-average ratio (1.0 is perfectly balanced)."""
        if not self.counts or self.mean == 0:
            return 1.0
        return max(self.counts.values()) / self.mean

    def max_deviation_from_even(self) -> float:
        """Largest absolute deviation of any node's share from 1/N."""
        if not self.counts:
            return 0.0
        even = 1.0 / len(self.counts)
        return max(abs(share - even) for share in self.fractions().values())


@dataclass
class ClusterMetrics:
    """Aggregated view over a set of node snapshots."""

    snapshots: List[NodeSnapshot] = field(default_factory=list)
    #: Unique fingerprints across the cluster (replicas deduplicated).  Set
    #: by :meth:`SHHCCluster.metrics`; ``None`` when only snapshots are
    #: available, in which case ``total_entries`` is the best estimate.
    distinct_entries: Optional[int] = None

    @classmethod
    def from_nodes(cls, nodes: Sequence) -> "ClusterMetrics":
        """Build metrics from live node objects (anything with ``snapshot()``)."""
        return cls(snapshots=[node.snapshot() for node in nodes])

    # -- totals --------------------------------------------------------------------
    @property
    def total_lookups(self) -> int:
        return sum(s.lookups for s in self.snapshots)

    @property
    def total_entries(self) -> int:
        return sum(s.entries for s in self.snapshots)

    @property
    def total_stored(self) -> int:
        """Stored copies across all nodes, replicas included."""
        return self.total_entries

    @property
    def distinct(self) -> int:
        """Unique fingerprints; falls back to the copy count without replication info."""
        return self.distinct_entries if self.distinct_entries is not None else self.total_entries

    @property
    def total_duplicates(self) -> int:
        return sum(s.duplicates for s in self.snapshots)

    @property
    def total_new_entries(self) -> int:
        return sum(s.new_entries for s in self.snapshots)

    @property
    def ram_hits(self) -> int:
        return sum(s.ram_hits for s in self.snapshots)

    @property
    def ssd_hits(self) -> int:
        return sum(s.ssd_hits for s in self.snapshots)

    def duplicate_ratio(self) -> float:
        """Fraction of lookups answered as duplicates."""
        return self.total_duplicates / self.total_lookups if self.total_lookups else 0.0

    def ram_hit_ratio(self) -> float:
        """Fraction of lookups answered from the RAM tier."""
        return self.ram_hits / self.total_lookups if self.total_lookups else 0.0

    # -- distributions -----------------------------------------------------------------
    def storage_distribution(self) -> LoadBalanceReport:
        """Hash entries stored per node (paper Figure 6)."""
        return LoadBalanceReport({s.node_id: s.entries for s in self.snapshots})

    def lookup_distribution(self) -> LoadBalanceReport:
        """Lookups served per node (access load balance)."""
        return LoadBalanceReport({s.node_id: s.lookups for s in self.snapshots})

    def tier_breakdown(self) -> Dict[str, int]:
        """How many lookups each tier answered across the cluster."""
        return {
            "ram": self.ram_hits,
            "ssd": self.ssd_hits,
            "new": self.total_new_entries,
        }
