"""Kill/restart experiment -- recovery time and degraded-mode latency.

The timed failover runs (:mod:`.control_plane`) crash nodes *reachability-
wise*: a downed node keeps its RAM state and comes back instantly.  This
experiment measures the harder event the paper's cluster must survive: a
node process dies for real (cache, bloom filter and flash-store index all
gone) and is restarted from its on-disk container log and bloom snapshot
(see docs/persistence.md).

One victim node is killed mid-workload and restarted ``downtime`` batches
later.  The cluster is built with a :class:`~repro.core.persistence.PersistencePolicy`
(files live in a temporary directory unless ``data_dir`` is given) and a
:class:`~repro.simulation.costmodel.CostModel`, so the restart charges the
recovery replay onto the victim's timeline: lookups landing on it while
the index rebuilds queue behind the replay, and the per-phase recorders
separate that warm-up tail out: ``degraded`` while the victim is down,
``recovering`` from its restart until the replay backlog drains (the
labels are :class:`~repro.analysis.experiments.replay.Outages`'s).

Correctness is scored two ways.  The shared batch walk (:mod:`.replay`)
audits every verdict against a client-side oracle, as in :mod:`.failover`;
separately every *acknowledged* fingerprint -- one the cluster answered for before the kill
-- is audited right after the restart: it must still be resident on some
live replica, else it counts as ``lost_acknowledged``.  With persistence
enabled the expected number is zero at every kill point; that is the
crash-consistency claim the ``restart`` scenario preset asserts in CI.

``warm_restart`` toggles the snapshot path: ``True`` (default) lets the
victim restore its bloom filter from the latest snapshot and replay only
the container tail; ``False`` disables snapshots so the restart replays
the full log.  ``recovery_time_ms`` is the CPU time the cost model charged.
"""

from __future__ import annotations

import tempfile
from typing import Any, Dict, List, Optional

from ...core.cluster import SHHCCluster
from ...core.config import HashNodeConfig
from ...core.fault_injection import FaultInjector, FaultSchedule
from ...core.persistence import PersistencePolicy
from ...dedup.fingerprint import Fingerprint
from ...simulation.costmodel import CostModel
from ...workloads.mixer import WorkloadMix
from .control_plane import calibrate_interval, p99_tax, read_ledger
from .replay import (
    DEGRADED_PHASE,
    RECOVERING_PHASE,
    Outages,
    ReplayAudit,
    audit_metrics,
    cluster_config,
    make_batches,
    replay,
)

__all__ = ["run_restart", "RECOVERING_PHASE"]


def _default_cadence(
    fingerprints: List[Fingerprint], replication_factor: int, num_nodes: int
) -> int:
    """Snapshot cadence giving each node a handful of snapshots per run.

    Container records grow only on *unique* inserts, so the cadence is
    sized from the distinct digest count: each node absorbs roughly
    ``distinct * k / num_nodes`` records over a full pass, and an eighth of
    that as the cadence means the victim has taken a snapshot or two well
    before a mid-run kill, while staying coarse enough that snapshot cost
    stays small.
    """
    distinct = len({fingerprint.digest for fingerprint in fingerprints})
    per_node = (distinct * replication_factor) // max(1, num_nodes)
    return max(64, per_node // 8)


def run_restart(
    scale: float = 0.002,
    num_nodes: int = 4,
    replication_factor: int = 2,
    virtual_nodes: int = 64,
    batch_size: int = 256,
    offered_load: float = 0.7,
    kill_batch: Optional[int] = None,
    downtime: int = 2,
    warm_restart: bool = True,
    snapshot_every: Optional[int] = None,
    fsync: bool = False,
    data_dir: Optional[str] = None,
    mix: Optional[WorkloadMix] = None,
    node_config: Optional[HashNodeConfig] = None,
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Kill one node mid-workload, restart it from disk, measure recovery.

    The victim (the lexicographically first node) is killed at batch
    ``kill_batch`` (default: one third into the run) and restarted
    ``downtime`` batches later.  Returns the ``restart`` preset's metrics:
    the charged recovery time, the degraded-/recovering-phase latency
    distributions, the oracle dedup accuracy and the acknowledged-
    fingerprint audit.

    ``data_dir`` keeps the persistence files after the run (for
    inspection); by default they live in a temporary directory that is
    removed on return.
    """
    if downtime < 1:
        raise ValueError("downtime must be >= 1 batch")
    model = cost_model if cost_model is not None else CostModel()
    fingerprints, batches = make_batches(mix, scale, batch_size, seed)
    if kill_batch is None:
        kill_batch = max(1, len(batches) // 3)
    if kill_batch < 1:
        raise ValueError("kill_batch must be >= 1 (batch 0 is calibration warm-up)")
    restart_batch = kill_batch + downtime
    if restart_batch >= len(batches):
        raise ValueError(
            f"only {len(batches)} batch(es) at batch_size={batch_size}: kill at "
            f"{kill_batch} + downtime {downtime} leaves no post-restart batches; "
            "lower batch_size or raise scale"
        )
    if warm_restart:
        cadence = (
            snapshot_every
            if snapshot_every is not None
            else _default_cadence(fingerprints, replication_factor, num_nodes)
        )
        if cadence < 1:
            raise ValueError("snapshot_every must be >= 1 when warm_restart is on")
    else:
        cadence = 0  # no snapshots: the restart replays the full container log
    config = cluster_config(
        num_nodes, replication_factor, virtual_nodes, node_config, len(fingerprints)
    )
    # Calibrate against a persistence-free probe: container writes are host
    # I/O, not simulated work, so they don't belong in the demand estimate.
    interval = calibrate_interval(config, model, batches, offered_load)

    tmp = None
    if data_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-restart-")
        directory = tmp.name
    else:
        directory = data_dir
    policy = PersistencePolicy(directory=directory, fsync=fsync, snapshot_every=cadence)
    cluster = SHHCCluster(config, cost_model=model, persistence=policy)
    try:
        return {
            **_run(cluster, batches, interval, kill_batch, restart_batch, batch_size),
            "offered_load": offered_load,
            "warm_restart": warm_restart,
            "restart_mode": "warm" if warm_restart else "cold",
            "snapshot_every": cadence,
        }
    finally:
        cluster.close()
        if tmp is not None:
            tmp.cleanup()


def _lost_acknowledged(cluster: SHHCCluster, acked: Dict[bytes, Fingerprint]) -> int:
    """Acknowledged fingerprints missing from every live replica."""
    lost = 0
    for fingerprint in acked.values():
        resident = any(
            fingerprint in cluster.nodes[name]
            for name in cluster.replica_set(fingerprint)
            if not cluster.is_down(name)
        )
        if not resident:
            lost += 1
    return lost


def _run(
    cluster: SHHCCluster,
    batches: List[List[Fingerprint]],
    interval: float,
    kill_batch: int,
    restart_batch: int,
    batch_size: int,
) -> Dict[str, Any]:
    """Replay with the victim's kill/restart pair as the only fault schedule.

    The victim is the lexicographically first node.  ``acked`` holds every
    fingerprint the cluster has answered for so far: its size at the kill
    is ``acknowledged``, and right after the restart each one must still be
    resident on some live replica of its set.
    """
    victim = min(cluster.nodes)
    acked: Dict[bytes, Fingerprint] = {}
    acknowledged = lost_acknowledged = 0

    def _acknowledge(outcomes) -> None:
        for outcome in outcomes:
            acked[outcome.fingerprint.digest] = outcome.fingerprint

    def _on_kill(_node: str) -> None:
        nonlocal acknowledged
        acknowledged = len(acked)

    def _on_restart(_node: str) -> None:
        nonlocal lost_acknowledged
        lost_acknowledged = _lost_acknowledged(cluster, acked)

    injector = FaultInjector(
        cluster,
        FaultSchedule().kill_restart(victim, kill_batch, restart_batch - kill_batch),
        on_crash=_on_kill,
        on_recovery=_on_restart,
    )
    audit = ReplayAudit()
    replay(cluster, batches, Outages(injector), audit, interval=interval, observe=_acknowledge)
    [(_victim, report)] = injector.recovery_reports
    return {
        **audit_metrics(audit, cluster.config, batch_size),
        "victim": victim,
        "kill_batch": kill_batch,
        "restart_batch": restart_batch,
        # Fingerprints the cluster had answered for before the kill, and
        # how many of them were missing from every live replica after the
        # restart.
        "acknowledged": acknowledged,
        "lost_acknowledged": lost_acknowledged,
        "acknowledged_accuracy": (1.0 - lost_acknowledged / acknowledged
                                  if acknowledged else 1.0),
        "unserved": audit.unserved,
        # Simulated CPU the restart charged onto the victim's timeline (the
        # headline recovery-time figure), and the host wall time of the
        # actual on-disk rebuild.
        "recovery_time_ms": report.charged_seconds * 1e3,
        "recovery_wall_ms": report.wall_seconds * 1e3,
        "recovered_entries": report.entries,
        "replayed_records": report.replayed,
        "snapshot_loaded": report.snapshot_loaded,
        "snapshot_bytes": report.snapshot_bytes,
        # Survivors absorbing the victim's load, then queueing behind its replay.
        "degraded_p99_tax": p99_tax(cluster, DEGRADED_PHASE),
        "recovery_p99_tax": p99_tax(cluster, RECOVERING_PHASE),
        **read_ledger(
            cluster,
            interval,
            {
                "kills": injector.kills,
                "restarts": injector.restarts,
                "snapshots_taken": sum(
                    node.persistence.snapshots_taken for node in cluster.nodes.values()
                ),
            },
        ),
    }
