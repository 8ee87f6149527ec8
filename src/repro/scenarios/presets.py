"""Built-in presets: every paper figure/table runner, spec-addressable.

Each preset maps a validated :class:`~repro.scenarios.spec.ScenarioSpec`
onto the corresponding experiment module in
:mod:`repro.analysis.experiments` and folds its native result into the
uniform metrics schema (see :mod:`repro.scenarios.result`).  A preset
states no default of its own: :func:`_call` forwards only the keys the
spec set, so an all-defaults spec *is* the runner's defaults --
``run_scenario("figure5").render()`` is byte-identical to
``run_figure5().render()``, which the golden tests pin down.

Node-config overrides (``spec.node``) replace the runner's auto-sized
:class:`~repro.core.config.HashNodeConfig` wholesale: the experiment
runners size bloom filters from the workload they are about to replay, and
a caller overriding the node tier takes over that sizing too (set
``bloom_expected_items`` alongside your override for large runs).
"""

from __future__ import annotations

import inspect
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Dict, List, Sequence

from ..core.config import HashNodeConfig
from ..workloads.mixer import table_i_mix
from ..workloads.profiles import WorkloadProfile, profile_by_name
from ..analysis.experiments import (
    ablations,
    control_plane,
    elasticity,
    failover,
    figure1,
    figure5,
    figure6,
    generational,
    restart,
    service,
    table1,
)
from .engine import Preset, register_preset
from .result import ScenarioResult
from .spec import NODE_KEYS, ScenarioSpec, SpecError

__all__ = ["CompositeResult"]

#: Key sets several presets share.
_REPLICATED_CLUSTER = frozenset({"num_nodes", "replication_factor", "virtual_nodes"})
_TABLE_I_MIX = frozenset({"scale", "profiles"})


# ----------------------------------------------------------------------- helpers
def _as_list(value: Any) -> List[Any]:
    """Spec values that are semantically lists, tolerating a bare scalar.

    CLI ``--set`` only builds a list when the value contains a comma, so
    ``--set batch_sizes=128`` or ``--set profiles=mail-server`` arrive as
    scalars; strings in particular must not be iterated character-wise.
    """
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _profile(name: str) -> WorkloadProfile:
    try:
        return profile_by_name(name)
    except KeyError as error:
        raise SpecError(str(error.args[0]) if error.args else f"unknown workload {name!r}") from None


def _call(runner: Callable[..., Any], spec: ScenarioSpec) -> Any:
    """Call ``runner`` with exactly the keys ``spec`` set.

    Every default lives in the runner's signature and nowhere else: a key
    the spec leaves out is not passed.  What is passed goes through under
    its own name, except for the conversions a declarative spec needs --
    list-valued keys tolerate a bare scalar, ``profile``/``profiles`` name
    :class:`WorkloadProfile` objects (``profiles`` becomes a Table-I ``mix``
    on the run's seed where the runner takes one), the ``node`` section is
    a whole :class:`HashNodeConfig`, and the fault/churn plans are the
    runner's ``fault_plan``/``churn_plan``.
    """
    kwargs: Dict[str, Any] = {**spec.cluster, **spec.workload, **spec.client}
    for key in ("node_counts", "rates", "batch_sizes"):
        if key in kwargs:
            kwargs[key] = tuple(_as_list(kwargs[key]))
    if "profile" in kwargs:
        kwargs["profile"] = _profile(kwargs["profile"])
    if spec.seed is not None:
        kwargs["seed"] = spec.seed
    if "profiles" in kwargs:
        profiles = [_profile(name) for name in _as_list(kwargs.pop("profiles"))]
        parameters = inspect.signature(runner).parameters
        if "mix" in parameters:
            seed = kwargs.get("seed", parameters["seed"].default)
            kwargs["mix"] = table_i_mix(seed=seed, profiles=profiles)
        else:
            kwargs["profiles"] = profiles
    if spec.node:
        kwargs["node_config"] = HashNodeConfig.from_dict(spec.node)
    if spec.faults is not None:
        kwargs["fault_plan"] = spec.faults
    if spec.churn is not None:
        kwargs["churn_plan"] = spec.churn
    return runner(**kwargs)


def _preset(
    name: str,
    description: str,
    run: Callable[[ScenarioSpec], Any],
    metrics: Callable[[Any], Dict[str, Any]],
    **accepted: Any,
) -> Callable[[ScenarioSpec], ScenarioResult]:
    """Register preset ``name``; returns its spec -> :class:`ScenarioResult` runner.

    ``run(spec)`` produces the experiment's native result (usually
    ``partial(_call, runner)``), ``metrics(result)`` folds it into the
    uniform schema, and ``accepted`` are the :class:`Preset` key sets.
    """

    def runner(spec: ScenarioSpec) -> ScenarioResult:
        result = run(spec)
        return ScenarioResult(spec=spec, metrics=metrics(result), detail=result)

    register_preset(Preset(name=name, description=description, runner=runner, **accepted))
    return runner


class CompositeResult:
    """Several experiment results rendered one after another."""

    def __init__(self, parts: Sequence[Any]) -> None:
        self.parts = list(parts)

    def render(self) -> str:
        return "\n\n".join(part.render() for part in self.parts)


# ----------------------------------------------------------------------- figure1
def _figure1_metrics(result: figure1.Figure1Result) -> Dict[str, Any]:
    return {
        "fingerprints": result.requests,
        "points": [
            {
                "nodes": point.nodes,
                "offered_rate": point.offered_rate,
                "execution_time_us": point.execution_time_us,
                "achieved_rate": point.achieved_rate,
            }
            for point in result.points
        ],
        "throughput": max((p.achieved_rate for p in result.points), default=None),
    }


_preset(
    "figure1",
    "Execution time of a fixed lookup count vs offered rate and cluster size",
    partial(_call, figure1.run_figure1),
    _figure1_metrics,
    node_keys=NODE_KEYS,
    workload_keys=frozenset({"requests", "rates", "node_counts", "chunk_size"}),
)


# ----------------------------------------------------------------------- figure5
def _figure5_metrics(result: figure5.Figure5Result) -> Dict[str, Any]:
    return {
        "fingerprints": result.points[0].fingerprints if result.points else 0,
        "points": [
            {
                "nodes": point.nodes,
                "batch_size": point.batch_size,
                "throughput": point.throughput,
                "duplicates": point.duplicates,
            }
            for point in result.points
        ],
        "throughput": max((p.throughput for p in result.points), default=None),
    }


_preset(
    "figure5",
    "Cluster throughput vs number of servers and batch size (full simulated stack)",
    partial(_call, figure5.run_figure5),
    _figure5_metrics,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX | {"node_counts", "batch_sizes"},
    client_keys=frozenset({"num_clients", "num_web_servers", "window"}),
)


# ----------------------------------------------------------------------- figure6
def _figure6_metrics(result: figure6.Figure6Result) -> Dict[str, Any]:
    return {
        "fingerprints": result.fingerprints_processed,
        "storage_fractions": result.fractions(),
        "coefficient_of_variation": result.storage_report.coefficient_of_variation,
        "max_deviation_from_even": result.max_deviation_from_even(),
        "lookup_max_over_mean": result.lookup_report.max_over_mean,
    }


_preset(
    "figure6",
    "Hash value storage distribution across cluster nodes (load balance)",
    partial(_call, figure6.run_figure6),
    _figure6_metrics,
    cluster_keys=frozenset({"num_nodes", "virtual_nodes"}),
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
)


# ----------------------------------------------------------------------- table1
def _table1_metrics(result: table1.Table1Result) -> Dict[str, Any]:
    return {
        "fingerprints": sum(row.measured.fingerprints for row in result.rows),
        "rows": [
            {
                "workload": row.workload,
                "fingerprints": row.measured.fingerprints,
                "target_redundancy": row.target_redundancy,
                "measured_redundancy": row.measured.redundancy,
                "target_distance": row.target_distance,
                "measured_distance": row.measured.mean_duplicate_distance,
                "redundancy_error": row.redundancy_error,
            }
            for row in result.rows
        ],
    }


_preset(
    "table1",
    "Workload characteristics: published targets vs generated traces",
    partial(_call, table1.run_table1),
    _table1_metrics,
    workload_keys=_TABLE_I_MIX,
)


# ----------------------------------------------------------------- generational
def _run_generational(spec: ScenarioSpec) -> generational.GenerationalResult:
    """The workload section overrides fields of the runner's default backup cycle."""
    return generational.run_generational_backup(
        config=replace(generational.DEFAULT_CONFIG, **spec.workload),
        seed=spec.seed,
        **spec.cluster,
        **spec.node,
    )


def _generational_metrics(result: generational.GenerationalResult) -> Dict[str, Any]:
    chunks = sum(row.chunks for row in result.rows)
    duplicates = sum(row.duplicates for row in result.rows)
    return {
        "fingerprints": chunks,
        "duplicate_ratio": duplicates / chunks if chunks else 0.0,
        "final_dedup_ratio": result.final_dedup_ratio(),
        "rows": [
            {
                "generation": row.generation,
                "chunks": row.chunks,
                "redundancy": row.redundancy,
                "ram_hit_ratio": row.ram_hit_ratio,
                "cumulative_dedup_ratio": row.cumulative_dedup_ratio,
            }
            for row in result.rows
        ],
    }


_preset(
    "generational",
    "Repeated full backups: per-generation redundancy, cache hits, dedup ratio",
    _run_generational,
    _generational_metrics,
    cluster_keys=frozenset({"num_nodes"}),
    node_keys=frozenset({"ram_cache_entries"}),
    workload_keys=frozenset(
        {"initial_chunks", "generations", "modify_fraction", "growth_fraction", "chunk_size"}
    ),
)


# ---------------------------------------------------------------- tier ablation
def _tier_ablation_metrics(result: ablations.TierAblationResult) -> Dict[str, Any]:
    return {
        "fingerprints": result.rows[0].lookups if result.rows else 0,
        "rows": [
            {
                "design": row.design,
                "lookups": row.lookups,
                "duplicates": row.duplicates,
                "mean_latency_us": row.mean_latency_us,
            }
            for row in result.rows
        ],
    }


_run_tier_ablation = _preset(
    "tier_ablation",
    "Index designs (disk, DDFS, ChunkStash, hybrid, RAM) head to head",
    partial(_call, ablations.run_tier_ablation),
    _tier_ablation_metrics,
    workload_keys=frozenset({"scale", "profile"}),
)


# --------------------------------------------------------------- batch tradeoff
def _batch_tradeoff_metrics(result: ablations.BatchTradeoffResult) -> Dict[str, Any]:
    return {
        "throughput": max((p.throughput for p in result.points), default=None),
        "points": [
            {
                "batch_size": point.batch_size,
                "throughput": point.throughput,
                "mean_request_latency_ms": point.mean_request_latency * 1e3,
                "mean_per_chunk_latency_us": point.mean_per_chunk_latency * 1e6,
            }
            for point in result.points
        ],
    }


_run_batch_tradeoff = _preset(
    "batch_tradeoff",
    "Throughput vs per-request latency as the query batch size grows",
    partial(_call, ablations.run_batch_tradeoff),
    _batch_tradeoff_metrics,
    cluster_keys=frozenset({"num_nodes"}),
    workload_keys=frozenset({"scale", "batch_sizes"}),
    client_keys=frozenset({"num_clients"}),
)


# ------------------------------------------------------------- scaling ablation
def _scaling_ablation_metrics(result: ablations.ScalingAblationResult) -> Dict[str, Any]:
    return {
        "fingerprints": result.fingerprints,
        "moved_fraction_range": result.moved_fraction_range,
        "moved_fraction_consistent": result.moved_fraction_consistent,
        "balance_after_range": result.balance_after_range,
        "balance_after_consistent": result.balance_after_consistent,
        "replication_entry_overhead": result.replication_entry_overhead,
        "replication_latency_overhead": result.replication_latency_overhead,
    }


_run_scaling_ablation = _preset(
    "scaling_ablation",
    "Join-time data movement (range vs consistent hashing) and replication overhead",
    partial(_call, ablations.run_scaling_ablation),
    _scaling_ablation_metrics,
    cluster_keys=frozenset({"num_nodes", "virtual_nodes"}),
    workload_keys=frozenset({"scale", "profile"}),
)


# -------------------------------------------------------------------- ablations
def _run_ablations(spec: ScenarioSpec) -> ScenarioResult:
    """The CLI's composite: tiers at ``scale``, batching at ``scale/10``, scaling at ``scale``."""
    scale = spec.workload.get("scale", 0.002)  # the composite's own default
    tier = _run_tier_ablation(
        ScenarioSpec(preset="tier_ablation", seed=spec.seed, workload={"scale": scale})
    )
    batch = _run_batch_tradeoff(
        ScenarioSpec(preset="batch_tradeoff", seed=spec.seed, workload={"scale": scale / 10})
    )
    scaling = _run_scaling_ablation(
        ScenarioSpec(preset="scaling_ablation", seed=spec.seed, workload={"scale": scale})
    )
    metrics: Dict[str, Any] = {
        "tier_ablation": tier.metrics,
        "batch_tradeoff": batch.metrics,
        "scaling_ablation": scaling.metrics,
    }
    detail = CompositeResult([tier.detail, batch.detail, scaling.detail])
    return ScenarioResult(spec=spec, metrics=metrics, detail=detail)


register_preset(
    Preset(
        name="ablations",
        description="All three ablation studies (tiers, batching, scaling) in one run",
        runner=_run_ablations,
        workload_keys=frozenset({"scale"}),
    )
)


# ----------------------------------------------------- the disruption experiments
def _audit_metrics(result: Any) -> Dict[str, Any]:
    """The oracle audit every disrupted replay carries."""
    return {
        "dedup_accuracy": result.accuracy,
        "false_uniques": result.false_uniques,
        "false_duplicates": result.false_duplicates,
    }


def _replication_metrics(result: Any) -> Dict[str, Any]:
    """The replication tail of the two correctness runs."""
    return {
        "distinct_fingerprints": result.distinct,
        "total_stored": result.total_stored,
        "fully_replicated": result.fully_replicated,
        "under_replicated": result.under_replicated,
        "lost": result.lost,
    }


def _failover_metrics(result: failover.FailoverResult) -> Dict[str, Any]:
    percentiles = result.latency_percentiles_faulty
    return {
        "fingerprints": result.fingerprints_processed,
        **_audit_metrics(result),
        "unserved": result.unserved,
        "grey_drops": result.grey_drops,
        "mean_latency_us": result.mean_latency_faulty * 1e6,
        "p50_latency_us": percentiles.get("p50", 0.0) * 1e6,
        "p95_latency_us": percentiles.get("p95", 0.0) * 1e6,
        "p99_latency_us": percentiles.get("p99", 0.0) * 1e6,
        "baseline_mean_latency_us": result.mean_latency_baseline * 1e6,
        "latency_overhead": result.latency_overhead,
        "served_from": dict(result.tier_hits),
        "read_repairs": result.read_repairs,
        "failovers": result.failovers,
        "replica_inserts": result.replica_inserts,
        "repaired_copies": result.repaired_copies,
        "crashes": result.crashes,
        "recoveries": result.recoveries,
        **_replication_metrics(result),
    }


_preset(
    "failover",
    "Dedup accuracy and latency under injected failures (crashes and grey failures)",
    partial(_call, failover.run_failover),
    _failover_metrics,
    cluster_keys=_REPLICATED_CLUSTER,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
    client_keys=frozenset({"batch_size", "repair_on_recovery"}),
    accepts_faults=True,
)


def _elasticity_metrics(result: elasticity.ElasticityResult) -> Dict[str, Any]:
    return {
        "fingerprints": result.fingerprints_processed,
        **_audit_metrics(result),
        "joins": result.joins,
        "leaves": result.leaves,
        "skipped_events": result.skipped_events,
        "final_nodes": result.final_nodes,
        "entries_moved": result.entries_moved,
        "moved_fraction": result.moved_fraction,
        "primary_moves": result.primary_moves,
        "replica_copies": result.replica_copies,
        "replica_drops": result.replica_drops,
        "read_repairs": result.read_repairs,
        "replica_inserts": result.replica_inserts,
        **_replication_metrics(result),
    }


_preset(
    "elasticity",
    "Dedup accuracy and migration traffic under membership churn (joins/leaves)",
    partial(_call, elasticity.run_elasticity),
    _elasticity_metrics,
    cluster_keys=_REPLICATED_CLUSTER,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
    client_keys=frozenset({"batch_size"}),
    accepts_churn=True,
)


def _timed_metrics(result: control_plane.ControlPlaneResult) -> Dict[str, Any]:
    """Common metrics schema for the timed control-plane presets."""
    metrics: Dict[str, Any] = {
        "fingerprints": result.fingerprints_processed,
        "offered_load": result.offered_load,
        "arrival_interval_us": result.interval * 1e6,
        "throughput": result.throughput,
        "p99_tax": result.p99_tax,
        "control_plane_cpu_seconds": result.control_plane_cpu_seconds,
        "unserved": result.unserved,
        **_audit_metrics(result),
    }
    for label, stats in (("steady", result.steady), (result.headline_phase, result.taxed)):
        if stats is None:
            continue
        metrics[f"{label}_lookups"] = stats.count
        metrics[f"{label}_mean_latency_us"] = stats.mean * 1e6
        metrics[f"{label}_p50_latency_us"] = stats.p50 * 1e6
        metrics[f"{label}_p99_latency_us"] = stats.p99 * 1e6
    metrics.update(result.counters)
    return metrics


_preset(
    "failover_timed",
    "Lookup p50/p99 and throughput during outages, control-plane costs charged",
    partial(_call, control_plane.run_failover_timed),
    _timed_metrics,
    cluster_keys=_REPLICATED_CLUSTER,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
    client_keys=frozenset({"batch_size", "offered_load"}),
    accepts_faults=True,
)

_preset(
    "churn_timed",
    "Lookup p50/p99 and throughput during membership churn, migration costs charged",
    partial(_call, control_plane.run_churn_timed),
    _timed_metrics,
    cluster_keys=_REPLICATED_CLUSTER,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
    client_keys=frozenset({"batch_size", "offered_load"}),
    accepts_churn=True,
)


def _restart_metrics(result: restart.RestartResult) -> Dict[str, Any]:
    metrics: Dict[str, Any] = {
        "fingerprints": result.fingerprints_processed,
        "offered_load": result.offered_load,
        "arrival_interval_us": result.interval * 1e6,
        "throughput": result.throughput,
        "dedup_accuracy": result.accuracy,
        "acknowledged": result.acknowledged,
        "lost_acknowledged": result.lost_acknowledged,
        "acknowledged_accuracy": result.acknowledged_accuracy,
        "unserved": result.unserved,
        "recovery_time_ms": result.recovery_time * 1e3,
        "recovery_wall_ms": result.recovery_wall_seconds * 1e3,
        "recovered_entries": result.recovered_entries,
        "replayed_records": result.replayed_records,
        "snapshot_loaded": result.snapshot_loaded,
        "snapshot_bytes": result.snapshot_bytes,
        "degraded_p99_tax": result.degraded_p99_tax,
        "recovery_p99_tax": result.recovery_p99_tax,
        "control_plane_cpu_seconds": result.control_plane_cpu_seconds,
    }
    for name in ("steady", "degraded", "recovering"):
        stats = result.phases.get(name)
        if stats is None:
            continue
        metrics[f"{name}_lookups"] = stats.count
        metrics[f"{name}_p50_latency_us"] = stats.p50 * 1e6
        metrics[f"{name}_p99_latency_us"] = stats.p99 * 1e6
    metrics.update(result.counters)
    return metrics


_preset(
    "restart",
    "Kill a node mid-workload, restart from WAL+snapshot, measure recovery",
    partial(_call, restart.run_restart),
    _restart_metrics,
    cluster_keys=_REPLICATED_CLUSTER,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
    client_keys=frozenset(
        {
            "batch_size",
            "offered_load",
            "kill_batch",
            "downtime",
            "warm_restart",
            "snapshot_every",
            "fsync",
        }
    ),
)


# ----------------------------------------------------------------- live service
def _run_service(spec: ScenarioSpec) -> service.ServiceRunResult:
    """The only preset that is not simulated: real sockets, real processes.

    Its workers take the ``node`` section as plain overrides, not as a
    whole :class:`HashNodeConfig`.
    """
    kwargs: Dict[str, Any] = {**spec.cluster, **spec.client}
    if spec.seed is not None:
        kwargs["seed"] = spec.seed
    if spec.node:
        kwargs["node_config"] = dict(spec.node)
    return service.run_service(**kwargs)


def _service_metrics(result: service.ServiceRunResult) -> Dict[str, Any]:
    return {
        "fingerprints": result.offered,
        "acknowledged": result.acknowledged,
        "new_fingerprints": result.new_fingerprints,
        "duplicate_fingerprints": result.duplicate_fingerprints,
        "throughput": result.throughput,
        "wall_seconds": result.wall_seconds,
        "p50_latency_us": result.latency_us.get("p50", 0.0),
        "p99_latency_us": result.latency_us.get("p99", 0.0),
        "sheds": result.sheds,
        "shed_rate": result.shed_rate,
        "retries": result.retries,
        "unavailable": result.unavailable,
        "failed_batches": result.failed_batches,
        "kills_sent": result.kills_sent,
        "worker_restarts": result.worker_restarts,
        "audit_checked": result.audit_checked,
        "lost_acknowledged": result.lost_acknowledged,
    }


_preset(
    "service",
    "Boot the real serving stack (TCP gateway + worker processes) and load it",
    _run_service,
    _service_metrics,
    cluster_keys=frozenset({"num_nodes"}),
    node_keys=NODE_KEYS,
    client_keys=frozenset(
        {
            "clients",
            "pipeline",
            "batch_size",
            "fingerprints",
            "duplicate_fraction",
            "arrival_rate_fps",
            "kill_node",
            "kill_after_fraction",
            "burst_batches",
            "snapshot_every",
            "fsync",
            "max_queue",
            "max_inflight",
        }
    ),
)
