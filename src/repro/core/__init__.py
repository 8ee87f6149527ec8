"""SHHC core: the scalable hybrid hash cluster (the paper's contribution)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".fault_injection": ("FaultEvent", "FaultInjector", "FaultSchedule", "FlakyNode",
                         "NodeUnavailableError", "make_flaky", "rolling_outage_schedule"),
    ".cluster": ("SHHCCluster",),
    ".config": ("ClusterConfig", "HashNodeConfig"),
    ".hash_node": ("HybridHashNode", "NodeSnapshot"),
    ".membership": ("MembershipManager", "MigrationReport"),
    ".persistence": ("NodePersistence", "PersistencePolicy", "RecoveryReport"),
    ".metrics": ("ClusterMetrics", "LoadBalanceReport"),
    ".partition": ("ConsistentHashRing", "Partitioner", "RangePartitioner"),
    ".protocol": ("BatchLookupReply", "BatchLookupRequest", "ServedFrom"),
    ".replication": ("ReplicaConsistencyReport", "ReplicationController"),
})
