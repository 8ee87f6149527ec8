"""Cost model for control-plane work: replication, repair and migration.

Historically every replica write, read repair and membership-migration copy
in this reproduction was applied *instantaneously* at the reply instant, so
the paper-relevant "replication tax" and "elasticity tax" were structurally
invisible: a cluster under outage or churn reported the same latency
distribution as a quiet one.  This module is the seam that fixes that.

Two pieces:

* :class:`CostModel` -- frozen pricing constants.  CPU costs are per
  operation on the node that performs the work; network costs are priced
  with the fabric constants from :mod:`repro.network.link` (50 µs per
  switched gigabit hop, 1 Gb/s serialisation), so the control plane and the
  data plane pay for the same wires.
* :class:`ControlPlaneLedger` -- the one charging timeline, built by every
  cluster that is given a cost model.  The ledger keeps a virtual clock
  (driven by the caller's arrival process) plus one busy-until frontier per
  node.  Lookup buckets are serviced against the frontier (queueing emerges
  when work outpaces arrivals); control-plane side effects are *deferred*
  onto the target node's frontier at their delivery time instead of being
  free.
  Latencies are tallied per phase (``steady`` / ``degraded`` /
  ``migrating``), which is what the ``failover_timed`` and
  ``churn_timed`` presets report.

Disabling the model (``cost_model=None``, the default everywhere) keeps
every code path byte-identical to the historical behaviour; see
docs/control_plane.md.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

from ..network.link import DEFAULT_LINK_LATENCY, GIGABIT_BANDWIDTH
from .stats import LatencyTally

__all__ = ["CostModel", "ControlPlaneLedger", "STEADY_PHASE"]

#: Default phase label for latencies recorded outside any outage/migration.
STEADY_PHASE = "steady"


@dataclass(frozen=True)
class CostModel:
    """Per-operation prices for control-plane work.

    CPU costs are seconds of node CPU per operation; byte sizes are the
    wire size of one fingerprint entry (digest + chunk size + framing).
    Hop counts default to the paper testbed's client-switch-server path
    (two 50 µs hops end to end, matching ``network/link.py``).
    """

    #: CPU to apply one replica write on the target node.
    replica_write_cpu: float = 8e-6
    #: CPU to export/import one migrated entry (charged on both ends).
    migration_entry_cpu: float = 5e-6
    #: One-way latency of a single fabric hop (seconds).
    hop_latency: float = DEFAULT_LINK_LATENCY
    #: Hops a replica-propagation message crosses (node -> switch -> node).
    replica_hops: int = 2
    #: Hops a migration transfer crosses.
    migration_hops: int = 2
    #: Fabric bandwidth in bytes per second.
    bandwidth: float = GIGABIT_BANDWIDTH
    #: Wire bytes per replicated fingerprint entry.
    replica_entry_bytes: int = 64
    #: Wire bytes per migrated fingerprint entry.
    migration_entry_bytes: int = 64
    #: CPU to replay one container record into the index during recovery
    #: (store insert or bloom re-hash).
    replay_entry_cpu: float = 2e-6
    #: CPU per byte to mmap-load and checksum a snapshot payload
    #: (~2 GB/s bulk copy + CRC).
    snapshot_byte_cpu: float = 5e-10

    def __post_init__(self) -> None:
        if self.replica_write_cpu < 0 or self.migration_entry_cpu < 0:
            raise ValueError("CPU costs must be non-negative")
        if self.replay_entry_cpu < 0 or self.snapshot_byte_cpu < 0:
            raise ValueError("recovery costs must be non-negative")
        if self.hop_latency < 0:
            raise ValueError("hop_latency must be non-negative")
        if self.replica_hops < 0 or self.migration_hops < 0:
            raise ValueError("hop counts must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.replica_entry_bytes < 0 or self.migration_entry_bytes < 0:
            raise ValueError("entry byte sizes must be non-negative")

    # -- pricing ------------------------------------------------------------------
    def transfer_time(self, entries: int, entry_bytes: int, hops: int) -> float:
        """Unloaded delivery time of ``entries`` sized entries over ``hops``."""
        return hops * self.hop_latency + entries * entry_bytes / self.bandwidth

    def replica_transfer_time(self, entries: int) -> float:
        """Delivery time of one replica-propagation message of ``entries``."""
        return self.transfer_time(entries, self.replica_entry_bytes, self.replica_hops)

    def replica_apply_cpu(self, entries: int) -> float:
        """Target-node CPU to apply ``entries`` replica writes."""
        return entries * self.replica_write_cpu

    def migration_transfer_time(self, entries: int) -> float:
        """Delivery time of one migration transfer of ``entries``."""
        return self.transfer_time(entries, self.migration_entry_bytes, self.migration_hops)

    def migration_cpu(self, entries: int) -> float:
        """Per-end CPU to export (or import) ``entries`` migrated entries."""
        return entries * self.migration_entry_cpu

    def recovery_cpu(self, replayed_entries: int, snapshot_bytes: int = 0) -> float:
        """CPU a restarted node spends rebuilding its index from disk.

        ``replayed_entries`` counts the per-record work (store rebuild plus
        bloom tail replay, or every live key twice on a cold restart);
        ``snapshot_bytes`` prices the bulk snapshot load.
        """
        return (
            replayed_entries * self.replay_entry_cpu
            + snapshot_bytes * self.snapshot_byte_cpu
        )


class ControlPlaneLedger:
    """Virtual timeline charging lookups and control-plane work.

    The ledger is a deliberately small queueing model: one FIFO CPU
    frontier per node (``busy_until``), a caller-driven arrival clock
    (``now``, advanced via :meth:`advance_to` by the experiment's offered
    load), and per-phase latency tallies.  A lookup bucket starts at
    ``max(now, busy_until[node])`` -- so deferred control-plane work
    (replica deliveries, migration imports) delays subsequent lookups on
    the same node, which is exactly the tax the timed presets measure.
    """

    def __init__(self, model: CostModel) -> None:
        self.model = model
        #: Virtual arrival clock (seconds); advanced by the driver.
        self.now = 0.0
        #: Per-node CPU frontier: the time each node's queued work clears.
        self.busy_until: Dict[str, float] = {}
        self.counters = Counter()
        #: Total control-plane CPU seconds deferred onto node frontiers.
        self.control_plane_cpu_seconds = 0.0
        #: Completion time of the most recently charged lookup bucket.
        self.last_completion = 0.0
        self.phase = STEADY_PHASE
        #: Per-phase lookup latencies, created on a phase's first charge.
        self.phases: Dict[str, LatencyTally] = {}

    # -- clock / phases -----------------------------------------------------------
    def set_phase(self, name: str) -> None:
        """Label subsequent lookup latencies (``steady``/``degraded``/...)."""
        self.phase = name

    def advance_to(self, time: float) -> None:
        """Move the arrival clock forward (never backward)."""
        if time > self.now:
            self.now = time

    def backlog(self) -> float:
        """Seconds of queued work beyond ``now`` on the busiest node."""
        if not self.busy_until:
            return 0.0
        return max(0.0, max(self.busy_until.values()) - self.now)

    def end_time(self) -> float:
        """When all charged work (arrivals and backlog) has drained."""
        frontier = max(self.busy_until.values()) if self.busy_until else 0.0
        return max(self.now, frontier)

    # -- charging -----------------------------------------------------------------
    def begin_service(self, node: str, service_time: float):
        """FIFO-queue ``service_time`` of work on ``node``; returns (start, end)."""
        start = self.busy_until.get(node, 0.0)
        if start < self.now:
            start = self.now
        end = start + service_time
        self.busy_until[node] = end
        return start, end

    def defer(self, node: str, at: float, cpu_time: float) -> float:
        """Queue ``cpu_time`` of control-plane work on ``node`` from ``at`` on.

        Returns the time the deferred work completes.  The work joins the
        node's FIFO frontier, so it delays later lookups on that node.
        """
        start = self.busy_until.get(node, 0.0)
        if start < at:
            start = at
        end = start + cpu_time
        self.busy_until[node] = end
        self.control_plane_cpu_seconds += cpu_time
        return end

    def charge_bucket(self, node: str, service_times: Sequence[float]) -> float:
        """Charge one serving node's lookup bucket; records per-reply latency.

        The bucket's service demand is the sum of its analytic per-reply
        ``service_times``; every reply completes when the bucket does, so
        the recorded latency is queueing delay (arrival to service start)
        plus the full bucket service -- the client-visible figure for a
        batched request.
        """
        service_time = 0.0
        for reply_time in service_times:
            service_time += reply_time
        _start, end = self.begin_service(node, service_time)
        self.last_completion = end
        count = len(service_times)
        if count:
            tally = self.phases.get(self.phase)
            if tally is None:
                self.phases[self.phase] = tally = LatencyTally()
            tally.add(end - self.now, count)
            self.counters["lookups"] += count
        return end

    def charge_replica_writes(self, pending: Mapping[str, int]) -> None:
        """Defer replica-propagation messages onto their targets' timelines.

        ``pending`` maps target node -> number of new entries shipped to it.
        Each target's message leaves when the serving bucket completes
        (``last_completion``), crosses the fabric, and then consumes apply
        CPU on the target.
        """
        model = self.model
        sent_at = self.last_completion
        if sent_at < self.now:
            sent_at = self.now
        for target, entries in pending.items():
            self.defer(
                target,
                sent_at + model.replica_transfer_time(entries),
                model.replica_apply_cpu(entries),
            )
            self.counters["replica_writes"] += entries
            self.counters["replica_bytes"] += entries * model.replica_entry_bytes
            self.counters["replica_messages"] += 1

    def charge_recovery(
        self, node: str, replayed_entries: int, snapshot_bytes: int = 0
    ) -> float:
        """Defer a restarted node's index-rebuild work onto its timeline.

        The node comes back at ``now`` but spends its first moments
        replaying the container (and loading the snapshot), so lookups that
        land on it during warm-up queue behind the recovery -- the
        degraded-mode tail the ``restart`` preset measures.  Returns the
        charged CPU seconds.
        """
        cpu = self.model.recovery_cpu(replayed_entries, snapshot_bytes)
        self.defer(node, self.now, cpu)
        self.counters["recovery_replayed_entries"] += replayed_entries
        self.counters["recovery_snapshot_bytes"] += snapshot_bytes
        self.counters["node_recoveries"] += 1
        return cpu

    def charge_migration(self, transfers: Mapping) -> None:
        """Defer migration copy traffic: export CPU, wire time, import CPU.

        ``transfers`` maps ``(source, target)`` -> entries copied.  The
        source pays export CPU from ``now``; the entries then cross the
        fabric and the target pays import CPU on arrival.  Both frontiers
        back up, so lookups right after a membership change queue behind
        the migration -- the elasticity tax.
        """
        model = self.model
        for (source, target), entries in transfers.items():
            cpu = model.migration_cpu(entries)
            export_done = self.defer(source, self.now, cpu)
            self.defer(target, export_done + model.migration_transfer_time(entries), cpu)
            self.counters["migration_entries"] += entries
            self.counters["migration_bytes"] += entries * model.migration_entry_bytes
            self.counters["migration_transfers"] += 1
