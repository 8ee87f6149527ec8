"""Configuration objects for hybrid hash nodes and the SHHC cluster.

All tunables live here so experiments can describe a deployment declaratively
against one authoritative set of defaults.  Defaults are calibrated to the paper's testbed era (quad-core Xeon,
4-16 GB RAM, SATA-II SSD, 1 GbE) -- see ``repro.storage.devices`` for the
device-level numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict

__all__ = ["HashNodeConfig", "ClusterConfig"]


def _dataclass_overrides(instance, overrides: Dict[str, Any]):
    """``replace`` with unknown-key validation (shared by both configs)."""
    known = {f.name for f in fields(instance)}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(
            f"unknown {type(instance).__name__} keys: {sorted(unknown)}; "
            f"valid keys: {sorted(known)}"
        )
    return replace(instance, **overrides)


@dataclass(frozen=True)
class HashNodeConfig:
    """Parameters of a single hybrid hash node.

    Attributes
    ----------
    ram_cache_entries:
        Capacity of the in-RAM LRU fingerprint cache.  The paper's nodes have
        4-16 GB of RAM; at ~64 bytes per cached entry the default of one
        million entries corresponds to a modest 64 MB cache.
    bloom_expected_items / bloom_false_positive_rate:
        Sizing of the per-node bloom filter that guards the SSD store.
    ssd_buckets / ssd_page_size / ssd_entry_size / ssd_write_buffer_pages:
        Geometry of the SSD-resident hash table (Berkeley DB substitute).
    cpu_per_lookup:
        CPU service time per fingerprint processed (request parsing, hashing,
        cache bookkeeping), seconds.
    cpu_per_request:
        Fixed CPU overhead per network request (batch), seconds.
    service_concurrency:
        Number of requests a node serves in parallel.  The default of 1
        models the single dispatcher thread of the paper-era key/value
        servers and is what makes a single node saturate at a few tens of
        thousands of lookups per second, the effect Figure 1 demonstrates.
    """

    ram_cache_entries: int = 1_000_000
    bloom_expected_items: int = 50_000_000
    bloom_false_positive_rate: float = 0.01
    ssd_buckets: int = 1 << 18
    ssd_page_size: int = 4096
    ssd_entry_size: int = 48
    ssd_write_buffer_pages: int = 64
    cpu_per_lookup: float = 20e-6
    cpu_per_request: float = 15e-6
    service_concurrency: int = 1

    def scaled_for(self, expected_fingerprints: int) -> "HashNodeConfig":
        """Return a copy with the bloom filter sized for a known workload."""
        if expected_fingerprints < 1:
            raise ValueError("expected_fingerprints must be >= 1")
        return replace(self, bloom_expected_items=max(1024, expected_fingerprints))

    def with_overrides(self, **overrides: Any) -> "HashNodeConfig":
        """Copy with field overrides; unknown keys raise ``ValueError``."""
        return _dataclass_overrides(self, overrides)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (round-trips through :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HashNodeConfig":
        return _dataclass_overrides(cls(), dict(payload))


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of the whole hash cluster."""

    num_nodes: int = 4
    node: HashNodeConfig = field(default_factory=HashNodeConfig)
    virtual_nodes: int = 0
    replication_factor: int = 1
    node_name_prefix: str = "hashnode"

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.replication_factor > self.num_nodes:
            raise ValueError("replication_factor cannot exceed num_nodes")
        if self.virtual_nodes < 0:
            raise ValueError("virtual_nodes must be >= 0")

    @property
    def node_names(self) -> list:
        """Deterministic node endpoint names."""
        return [f"{self.node_name_prefix}-{i}" for i in range(self.num_nodes)]

    def with_nodes(self, num_nodes: int) -> "ClusterConfig":
        """Copy of this config with a different cluster size."""
        return replace(self, num_nodes=num_nodes)

    def with_overrides(self, **overrides: Any) -> "ClusterConfig":
        """Copy with field overrides; unknown keys raise ``ValueError``.

        ``node`` may be given as a :class:`HashNodeConfig` or as a dict of
        node-level overrides applied on top of the current node config.
        """
        node = overrides.get("node")
        if isinstance(node, dict):
            overrides = dict(overrides, node=self.node.with_overrides(**node))
        return _dataclass_overrides(self, overrides)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (round-trips through :meth:`from_dict`)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["node"] = self.node.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ClusterConfig":
        return cls().with_overrides(**dict(payload))
