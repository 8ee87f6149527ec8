"""Fault injection: scripted node failures and flaky-node wrappers.

The paper claims the hash cluster keeps serving lookups through node
failures; this module turns that claim into a testable scenario family.
Three pieces compose the harness:

* :class:`FaultSchedule` -- a declarative script of crash/recover events
  against a time axis.  The axis is whatever clock the caller advances:
  the replay's logical clock (batch index, see
  ``analysis/experiments/replay.py``), priced into seconds by the
  :class:`~repro.simulation.costmodel.ControlPlaneLedger` when a cost
  model is on.  Faults have that one clock; the simulated deployment
  schedules none.
* :class:`FaultInjector` -- applies a schedule to a cluster by polling
  (:meth:`FaultInjector.advance`).  An optional ``on_recovery`` hook lets
  callers run anti-entropy repair (see
  :class:`~repro.core.replication.ReplicationController`) when a node
  rejoins.
* :class:`FlakyNode` -- a transparent wrapper around a
  :class:`~repro.core.hash_node.HybridHashNode` that makes individual
  lookups fail with :class:`NodeUnavailableError` at a configured
  probability, modelling grey failures (timeouts, packet loss) rather than
  clean crashes.  The cluster's routing layer routes a refused bucket
  again, each key to its live replica with the fewest refusals.

The injector only needs ``mark_down`` / ``mark_up`` / node-name lookup from
its target, so it works on :class:`~repro.core.cluster.SHHCCluster` without
importing it (no circular dependency: the cluster imports this module for
:class:`NodeUnavailableError`).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "NodeUnavailableError",
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
    "FaultPlan",
    "FlakyNode",
    "make_flaky",
    "rolling_outage_schedule",
    "rolling_outage_from_density",
    "rolling_restart_from_density",
]

#: Actions a fault event may carry.  ``crash``/``recover`` are reachability
#: faults (the node's state survives); ``kill``/``restart`` destroy the
#: node's in-memory state and recover it from its persistence layer.
CRASH = "crash"
RECOVER = "recover"
KILL = "kill"
RESTART = "restart"
_ACTIONS = (CRASH, RECOVER, KILL, RESTART)


class NodeUnavailableError(RuntimeError):
    """A node (or its RPC endpoint) refused to serve a request."""


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scripted membership change: ``node`` crashes or recovers at ``time``."""

    time: float
    action: str
    node: str

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"action must be one of {_ACTIONS}, got {self.action!r}")
        if self.time < 0:
            raise ValueError("fault event time must be >= 0")


class FaultSchedule:
    """An ordered script of :class:`FaultEvent` entries.

    Builder methods return ``self`` so schedules read fluently::

        schedule = FaultSchedule().crash("hashnode-1", at=2.0).recover("hashnode-1", at=5.0)
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self._events: List[FaultEvent] = sorted(events)

    # -- building ---------------------------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultSchedule":
        self._events.append(event)
        self._events.sort()
        return self

    def crash(self, node: str, at: float) -> "FaultSchedule":
        """Schedule ``node`` to fail (stop serving) at time ``at``."""
        return self.add(FaultEvent(time=at, action=CRASH, node=node))

    def recover(self, node: str, at: float) -> "FaultSchedule":
        """Schedule ``node`` to rejoin at time ``at``."""
        return self.add(FaultEvent(time=at, action=RECOVER, node=node))

    def outage(self, node: str, start: float, duration: float) -> "FaultSchedule":
        """Convenience: crash at ``start``, recover ``duration`` later."""
        if duration <= 0:
            raise ValueError("outage duration must be positive")
        return self.crash(node, at=start).recover(node, at=start + duration)

    def kill(self, node: str, at: float) -> "FaultSchedule":
        """Schedule ``node`` to be killed (in-memory state destroyed) at ``at``."""
        return self.add(FaultEvent(time=at, action=KILL, node=node))

    def restart(self, node: str, at: float) -> "FaultSchedule":
        """Schedule ``node`` to restart (recover state from disk) at ``at``."""
        return self.add(FaultEvent(time=at, action=RESTART, node=node))

    def kill_restart(self, node: str, start: float, duration: float) -> "FaultSchedule":
        """Convenience: kill at ``start``, restart ``duration`` later."""
        if duration <= 0:
            raise ValueError("kill/restart duration must be positive")
        return self.kill(node, at=start).restart(node, at=start + duration)

    # -- inspection -------------------------------------------------------------------
    @property
    def events(self) -> List[FaultEvent]:
        """All events in time order."""
        return list(self._events)

    @property
    def horizon(self) -> float:
        """Time of the last scheduled event (0.0 for an empty schedule)."""
        return self._events[-1].time if self._events else 0.0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultSchedule events={len(self._events)} horizon={self.horizon}>"


def rolling_outage_schedule(
    node_names: Sequence[str],
    period: float,
    downtime: float,
    start: float = 0.0,
    rounds: int = 1,
) -> FaultSchedule:
    """One-node-at-a-time rolling outages across ``node_names``.

    Node *i* crashes at ``start + i * period`` (plus one full sweep per
    round) and recovers ``downtime`` later.  With ``downtime < period`` at
    most one node is ever down, the regime in which a cluster with
    ``replication_factor >= 2`` must not lose a single dedup verdict.
    """
    if period <= 0 or downtime <= 0:
        raise ValueError("period and downtime must be positive")
    if downtime >= period:
        raise ValueError("downtime must be smaller than period (one node down at a time)")
    schedule = FaultSchedule()
    for round_index in range(rounds):
        sweep_start = start + round_index * period * len(node_names)
        for index, node in enumerate(node_names):
            schedule.outage(node, start=sweep_start + index * period, duration=downtime)
    return schedule


def rolling_outage_from_density(
    node_names: Sequence[str],
    horizon: float,
    density: float,
    rounds: int = 1,
    start: float = 1.0,
) -> FaultSchedule:
    """Rolling outages sized so each node is down ``density`` of its slot.

    The available time axis ``[start, horizon)`` is divided into
    ``rounds * len(node_names)`` equal slots; node *i* crashes at the start
    of its slot and stays down for ``density`` of the slot.  ``density = 0``
    yields an empty schedule (a fault-free run); densities approaching 1
    are clamped just below a full slot so at most one node is ever down.
    """
    if not 0.0 <= density < 1.0:
        raise ValueError("density must be within [0, 1)")
    if horizon <= start:
        raise ValueError("horizon must be past the schedule start")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if density == 0.0 or not node_names:
        return FaultSchedule()
    period = (horizon - start) / (rounds * len(node_names))
    downtime = min(density * period, period * (1.0 - 1e-9))
    return rolling_outage_schedule(node_names, period, downtime, start=start, rounds=rounds)


def rolling_restart_from_density(
    node_names: Sequence[str],
    horizon: float,
    density: float,
    rounds: int = 1,
    start: float = 1.0,
) -> FaultSchedule:
    """Rolling **kill/restart** faults with :func:`rolling_outage_from_density` timing.

    Same slots and downtimes as a rolling outage, but each node's crash
    destroys its in-memory state (``kill``) and its rejoin recovers from
    disk (``restart``) -- so clusters with persistence pay a real recovery
    cost and clusters without lose data for real.
    """
    base = rolling_outage_from_density(
        node_names, horizon=horizon, density=density, rounds=rounds, start=start
    )
    return FaultSchedule(
        FaultEvent(
            time=event.time,
            action=KILL if event.action == CRASH else RESTART,
            node=event.node,
        )
        for event in base
    )


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, serializable fault scenario.

    Where :class:`FaultSchedule` scripts concrete (node, time) events, a
    plan describes the *shape* of the scenario -- how much outage, how
    flaky -- and is materialized against a particular cluster and time
    horizon at run time.  That makes fault scenarios spec-addressable: an
    experiment spec can carry ``{"kind": "rolling_outage", "outage_density":
    0.3}`` instead of hand-building schedules per runner.

    Kinds
    -----
    ``none``
        Fault-free run.
    ``rolling_outage``
        Clean crashes: one node at a time is down for ``outage_density`` of
        its share of the run (see :func:`rolling_outage_from_density`).
    ``grey_failure``
        No crashes; the first ``flaky_nodes`` nodes drop each request with
        probability ``failure_rate`` (see :class:`FlakyNode`).
    ``rolling_grey``
        Both at once: rolling clean outages plus grey-failing nodes.
    ``rolling_restart``
        Rolling **kill/restart** faults: same timing as ``rolling_outage``
        but each crash destroys the node's in-memory state and each rejoin
        recovers it from the persistence layer (empty without one).
    """

    kind: str = "none"
    outage_density: float = 0.0
    rounds: int = 1
    start: float = 1.0
    failure_rate: float = 0.0
    flaky_nodes: int = 1

    KINDS = ("none", "rolling_outage", "grey_failure", "rolling_grey", "rolling_restart")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {self.kind!r}")
        if not 0.0 <= self.outage_density < 1.0:
            raise ValueError("outage_density must be within [0, 1)")
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError("failure_rate must be within [0, 1]")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.flaky_nodes < 0:
            raise ValueError("flaky_nodes must be >= 0")

    # -- named constructors -----------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """A fault-free plan (the default)."""
        return cls()

    @classmethod
    def rolling_outage(cls, outage_density: float, rounds: int = 1, start: float = 1.0) -> "FaultPlan":
        """Clean rolling crashes covering ``outage_density`` of each node's slot."""
        return cls(kind="rolling_outage", outage_density=outage_density, rounds=rounds, start=start)

    @classmethod
    def grey_failure(cls, failure_rate: float, flaky_nodes: int = 1) -> "FaultPlan":
        """Grey failures: ``flaky_nodes`` nodes drop requests at ``failure_rate``."""
        return cls(kind="grey_failure", failure_rate=failure_rate, flaky_nodes=flaky_nodes)

    @classmethod
    def rolling_grey(
        cls,
        outage_density: float,
        failure_rate: float,
        flaky_nodes: int = 1,
        rounds: int = 1,
        start: float = 1.0,
    ) -> "FaultPlan":
        """Rolling clean outages combined with grey-failing nodes."""
        return cls(
            kind="rolling_grey",
            outage_density=outage_density,
            rounds=rounds,
            start=start,
            failure_rate=failure_rate,
            flaky_nodes=flaky_nodes,
        )

    @classmethod
    def rolling_restart(
        cls, outage_density: float, rounds: int = 1, start: float = 1.0
    ) -> "FaultPlan":
        """Rolling kill/restart faults covering ``outage_density`` of each slot."""
        return cls(
            kind="rolling_restart", outage_density=outage_density, rounds=rounds, start=start
        )

    # -- materialization --------------------------------------------------------------
    @property
    def has_outages(self) -> bool:
        return (
            self.kind in ("rolling_outage", "rolling_grey", "rolling_restart")
            and self.outage_density > 0.0
        )

    @property
    def has_grey_failures(self) -> bool:
        return self.kind in ("grey_failure", "rolling_grey") and self.failure_rate > 0.0

    def schedule(self, node_names: Sequence[str], horizon: float) -> FaultSchedule:
        """Concrete crash/recover events for this plan over ``[0, horizon)``."""
        if not self.has_outages:
            return FaultSchedule()
        builder = (
            rolling_restart_from_density
            if self.kind == "rolling_restart"
            else rolling_outage_from_density
        )
        return builder(
            node_names,
            horizon=horizon,
            density=self.outage_density,
            rounds=self.rounds,
            start=self.start,
        )

    def apply_grey(self, cluster, seed: int = 0) -> List["FlakyNode"]:
        """Wrap the plan's flaky nodes on ``cluster``; returns the wrappers.

        Nodes are taken in name order so the choice is deterministic; each
        wrapper draws from its own seed stream derived from ``seed``.
        """
        if not self.has_grey_failures:
            return []
        wrappers = []
        for index, name in enumerate(sorted(cluster.nodes)[: self.flaky_nodes]):
            wrappers.append(make_flaky(cluster, name, self.failure_rate, seed=seed + index))
        return wrappers

    # -- serialization ----------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (round-trips through :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        unknown = set(payload) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown FaultPlan keys: {sorted(unknown)}")
        return cls(**payload)


class FaultInjector:
    """Applies a :class:`FaultSchedule` to a cluster.

    Parameters
    ----------
    cluster:
        The :class:`~repro.core.cluster.SHHCCluster` to disrupt: crashes and
        recoveries call ``mark_down`` / ``mark_up``, kills and restarts
        ``kill_node`` / ``restart_node``.
    schedule:
        The script to apply.
    on_crash / on_recovery:
        Optional hooks ``(node_name) -> None`` invoked *after* the
        membership change; ``on_recovery`` is where anti-entropy repair
        belongs (e.g. ``ReplicationController.repair``).
    """

    def __init__(
        self,
        cluster,
        schedule: FaultSchedule,
        on_crash: Optional[Callable[[str], None]] = None,
        on_recovery: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.cluster = cluster
        self.schedule = schedule
        self.on_crash = on_crash
        self.on_recovery = on_recovery
        self._pending: List[FaultEvent] = schedule.events
        self.applied: List[FaultEvent] = []
        self.crashes = 0
        self.recoveries = 0
        self.kills = 0
        self.restarts = 0
        #: ``(node, RecoveryReport-or-None)`` per applied restart event.
        self.recovery_reports: List = []

    def advance(self, now: float) -> List[FaultEvent]:
        """Apply every event whose time is ``<= now``; returns those events."""
        fired: List[FaultEvent] = []
        while self._pending and self._pending[0].time <= now:
            event = self._pending.pop(0)
            self._apply(event)
            fired.append(event)
        return fired

    def drain(self) -> List[FaultEvent]:
        """Apply every remaining event (end of a run)."""
        return self.advance(float("inf"))

    def _apply(self, event: FaultEvent) -> None:
        action = event.action
        if action == CRASH:
            self.cluster.mark_down(event.node)
            self.crashes += 1
            if self.on_crash is not None:
                self.on_crash(event.node)
        elif action == KILL:
            # A kill is a crash that also destroys the node's in-memory state.
            self.cluster.kill_node(event.node)
            self.crashes += 1
            self.kills += 1
            if self.on_crash is not None:
                self.on_crash(event.node)
        elif action == RESTART:
            report = self.cluster.restart_node(event.node)
            self.recoveries += 1
            self.restarts += 1
            self.recovery_reports.append((event.node, report))
            if self.on_recovery is not None:
                self.on_recovery(event.node)
        else:  # RECOVER
            self.cluster.mark_up(event.node)
            self.recoveries += 1
            if self.on_recovery is not None:
                self.on_recovery(event.node)
        self.applied.append(event)

    @property
    def pending(self) -> int:
        """Events not yet applied."""
        return len(self._pending)


class FlakyNode:
    """Wrap a hash node so individual lookups fail with a given probability.

    Only the serving entry points (:meth:`serve_bucket_verdicts`,
    :meth:`serve_batch`) are intercepted -- every public ``serve*``
    callable of the node, which
    tests/test_fault_injection.py enumerates so a new one cannot slip past
    the wrapper.  State inspection and maintenance paths pass straight
    through -- ``store`` and ``finish_replica_inserts``, which the
    cluster's one replica write (``SHHCCluster._propagate_new_groups``)
    calls, ``export_entries``, ``__contains__``, ... -- because replication
    traffic in this codebase is an internal bookkeeping call, not a
    network request.

    Failures are deterministic given ``seed``, so experiments are
    reproducible.
    """

    def __init__(self, node, failure_rate: float, seed: int = 0) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be within [0, 1]")
        self._node = node
        self.failure_rate = failure_rate
        self._rng = random.Random(seed)
        self.injected_failures = 0

    def _maybe_fail(self) -> None:
        if self._rng.random() < self.failure_rate:
            self.injected_failures += 1
            raise NodeUnavailableError(f"node {self._node.node_id!r} dropped the request")

    # -- intercepted serving paths ----------------------------------------------------
    def serve_bucket_verdicts(self, batch):
        # One failure draw per batch, whatever its size.
        self._maybe_fail()
        return self._node.serve_bucket_verdicts(batch)

    def serve_batch(self, request, on_reply):
        self._maybe_fail()
        self._node.serve_batch(request, on_reply)

    # -- transparent delegation -------------------------------------------------------
    def __getattr__(self, name):
        return getattr(self._node, name)

    def __len__(self) -> int:
        return len(self._node)

    def __contains__(self, fingerprint) -> bool:
        return fingerprint in self._node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlakyNode rate={self.failure_rate} wrapping {self._node!r}>"


def make_flaky(cluster, node_name: str, failure_rate: float, seed: int = 0) -> FlakyNode:
    """Replace ``cluster.nodes[node_name]`` with a :class:`FlakyNode` wrapper."""
    wrapper = FlakyNode(cluster.nodes[node_name], failure_rate, seed=seed)
    cluster.nodes[node_name] = wrapper
    return wrapper
