"""SHHC core: the scalable hybrid hash cluster (the paper's contribution)."""

from .cluster import SHHCCluster
from .config import ClusterConfig, HashNodeConfig
from .fault_injection import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FlakyNode,
    NodeUnavailableError,
    make_flaky,
    rolling_outage_schedule,
)
from .hash_node import HybridHashNode, NodeSnapshot
from .membership import MembershipManager, MigrationReport
from .persistence import NodePersistence, PersistencePolicy, RecoveryReport
from .metrics import ClusterMetrics, LoadBalanceReport
from .partition import ConsistentHashRing, Partitioner, RangePartitioner
from .protocol import (
    BatchLookupReply,
    BatchLookupRequest,
    LookupReply,
    ServedFrom,
)
from .replication import ReplicaConsistencyReport, ReplicationController

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FlakyNode",
    "NodeUnavailableError",
    "make_flaky",
    "rolling_outage_schedule",
    "SHHCCluster",
    "ClusterConfig",
    "HashNodeConfig",
    "HybridHashNode",
    "NodeSnapshot",
    "MembershipManager",
    "MigrationReport",
    "NodePersistence",
    "PersistencePolicy",
    "RecoveryReport",
    "ClusterMetrics",
    "LoadBalanceReport",
    "ConsistentHashRing",
    "Partitioner",
    "RangePartitioner",
    "BatchLookupReply",
    "BatchLookupRequest",
    "LookupReply",
    "ServedFrom",
    "ReplicaConsistencyReport",
    "ReplicationController",
]
