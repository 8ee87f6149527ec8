"""repro -- a reproduction of SHHC, the Scalable Hybrid Hash Cluster.

SHHC (Xu, Hu, Mkandawire, Jiang -- ICDCS Workshops 2011) is a distributed
fingerprint store and lookup service for in-line deduplicating cloud backup:
fingerprints are range-partitioned over *hybrid hash nodes* that pair an
in-RAM LRU cache and bloom filter with an SSD-resident hash table.

The package is organised in layers:

``repro.simulation``
    Discrete-event simulation kernel (clock, processes, resources, RNG,
    statistics) used by every timing experiment.
``repro.storage``
    Device models (RAM/SSD/HDD), bloom filter, LRU cache, cuckoo hash, the
    SSD-resident hash store, write-ahead log and the cloud object store.
``repro.network``
    Messages, links, switch fabric, RPC layer and HAProxy-style load
    balancing policies.
``repro.dedup``
    Chunking (fixed and content-defined), SHA-1 fingerprints, chunk-index
    interfaces and the directory archiver (the client-side dedup loop).
``repro.core``
    The paper's contribution: hybrid hash nodes, partitioners, the SHHC
    cluster, membership/rebalancing and replication.
``repro.frontend``
    Backup clients, web front-end servers, upload plans and the one-call
    :class:`~repro.frontend.gateway.BackupService` facade.
``repro.baselines``
    Centralized comparison points (disk index, DDFS-style, ChunkStash-style,
    single hybrid node).
``repro.workloads``
    Table-I workload profiles, synthetic trace generation and arrival
    processes.
``repro.analysis``
    Experiment runners for every table and figure, plus report rendering.
``repro.scenarios``
    The unified experiment API: declarative :class:`ScenarioSpec` +
    :class:`SweepGrid`, executed by ``run_scenario`` / ``run_sweep`` over
    the preset catalogue (every paper figure/table is a preset).  See
    ``docs/scenarios.md``.

Quickstart
----------
>>> from repro import BackupService
>>> service = BackupService()
>>> plan = service.backup("alice", b"some data" * 1024)
>>> plan.total_chunks >= 1
True
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core.cluster": ("SHHCCluster",),
    ".core.config": ("ClusterConfig", "HashNodeConfig"),
    ".core.hash_node": ("HybridHashNode",),
    ".frontend.gateway": ("BackupService", "build_simulated_service"),
    ".scenarios": ("ScenarioSpec", "SweepGrid", "run_scenario", "run_sweep", "spec_for"),
    ".workloads.profiles": ("TABLE_I_PROFILES", "WorkloadProfile"),
    ".workloads.traces": ("TraceGenerator",),
})
__all__.append("__version__")
