"""Built-in presets: every paper figure/table runner, spec-addressable.

Each preset maps a validated :class:`~repro.scenarios.spec.ScenarioSpec`
onto the corresponding experiment module in
:mod:`repro.analysis.experiments` and folds its native result into the
uniform metrics schema (see :mod:`repro.scenarios.result`).  A preset
states no default of its own: :func:`_call` forwards only the keys the
spec set, so an all-defaults spec *is* the runner's defaults --
``run_scenario("figure5").render()`` is byte-identical to
``run_figure5().render()``, which the golden tests pin down.

A preset names its runner by experiment module and function
(``"figure5.run_figure5"``) and imports that module on its first run; the
descriptions and accepted keys are all this module holds eagerly.  So
resolving, validating or listing a preset loads no experiment module, and
running one loads only the modules it runs -- ``figure5`` never pays for
the live service's asyncio gateway or the ablations' baselines.

Each preset carries the paper's findings it reproduces as named
:class:`~repro.scenarios.result.Claim` tuples.  A predicate reads only the
finished run's spec and metrics, so stating a claim imports nothing.

Node-config overrides (``spec.node``) replace the runner's auto-sized
:class:`~repro.core.config.HashNodeConfig` wholesale: the experiment
runners size bloom filters from the workload they are about to replay, and
a caller overriding the node tier takes over that sizing too (set
``bloom_expected_items`` alongside your override for large runs).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import replace
from functools import partial
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.config import HashNodeConfig
from ..workloads.mixer import table_i_mix
from ..workloads.profiles import TABLE_I_PROFILES, WorkloadProfile, profile_by_name
from .engine import Preset, register_preset
from .result import FAILS, HOLDS, NOT_APPLICABLE, Claim, ScenarioResult
from .spec import NODE_KEYS, ScenarioSpec, SpecError

if TYPE_CHECKING:  # annotations only: each is imported on its preset's first run
    from ..analysis.experiments import (ablations, control_plane, elasticity, failover,
                                        figure1, figure5, figure6, generational, restart,
                                        service, table1)

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


def _experiment(module: str) -> Any:
    """``repro.analysis.experiments.<module>``, imported on first use."""
    return import_module(f"..analysis.experiments.{module}", __package__)


def _call_named(target: str, spec: ScenarioSpec) -> Any:
    """:func:`_call` on ``target``, named ``"<experiment module>.<function>"``."""
    module, function = target.split(".")
    return _call(getattr(_experiment(module), function), spec)


def _preset(
    name: str,
    description: str,
    run: Union[str, Callable[[ScenarioSpec], Any]],
    metrics: Callable[[Any], Dict[str, Any]],
    **accepted: Any,
) -> Callable[[ScenarioSpec], ScenarioResult]:
    """Register preset ``name``; returns its spec -> :class:`ScenarioResult` runner.

    ``run`` produces the experiment's native result: usually the name
    ``"<experiment module>.<function>"`` of a runner :func:`_call` feeds,
    else a spec -> result function that imports its experiment itself.
    ``metrics(result)`` folds the result into the uniform schema, and
    ``accepted`` are the :class:`Preset` key sets.
    """
    if isinstance(run, str):
        run = partial(_call_named, run)

    def runner(spec: ScenarioSpec) -> ScenarioResult:
        result = run(spec)
        return ScenarioResult(spec=spec, metrics=metrics(result), detail=result)

    register_preset(Preset(name=name, description=description, runner=runner, **accepted))
    return runner


def _claim(
    claim_id: str,
    description: str,
    observe: Callable[[ScenarioResult], Any],
    holds: Callable[[Any], bool],
) -> Claim:
    """A claim that ``holds(observe(result))``; ``observe`` answers ``None`` for n/a."""

    def predicate(result: ScenarioResult) -> Tuple[str, Any]:
        observed = observe(result)
        if observed is None:
            return NOT_APPLICABLE, None
        return (HOLDS if holds(observed) else FAILS), observed

    return Claim(claim_id, description, predicate)


def _metric(key: str) -> Callable[[ScenarioResult], Any]:
    return lambda result: result.metrics.get(key)


def _points(result: ScenarioResult, row: str, *keys: str) -> Dict[Any, Any]:
    """``points`` as ``{(key values): row value}``: a figure's grid cells."""
    return {tuple(point[key] for key in keys): point[row] for point in result.metrics["points"]}


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


def _figure1_times(result: ScenarioResult) -> Dict[Any, float]:
    return _points(result, "execution_time_us", "nodes", "offered_rate")


def _more_nodes_never_slower(result: ScenarioResult) -> Optional[float]:
    """The smallest time(fewer nodes) / time(next more nodes) at any one rate."""
    times = _figure1_times(result)
    cells = sorted(times, key=lambda cell: cell[::-1])  # by rate, then nodes
    return min((times[fewer] / times[more] for fewer, more in zip(cells, cells[1:])
                if fewer[1] == more[1]), default=None)


def _saturated_time_falls(result: ScenarioResult) -> Optional[float]:
    times = [_figure1_times(result).get((nodes, 100_000)) for nodes in (1, 2, 4)]
    return None if None in times else min(times[0] / times[1], times[1] / times[2])


def _injection_limited(rate: float, nodes: Optional[int] = None) -> Callable[..., Any]:
    """time / (requests / rate) at ``rate`` for ``nodes`` (or any size): the farthest from 1."""

    def observe(result: ScenarioResult) -> Optional[float]:
        nominal = result.metrics["fingerprints"] / rate * 1e6
        return max((time / nominal for (size, at), time in _figure1_times(result).items()
                    if at == rate and nodes in (None, size)),
                   key=lambda ratio: abs(ratio - 1), default=None)

    return observe


def _single_node_share(result: ScenarioResult) -> Optional[float]:
    achieved = _points(result, "achieved_rate", "nodes", "offered_rate").get((1, 100_000))
    return None if achieved is None else achieved / 100_000


_preset(
    "figure1",
    "Execution time of a fixed lookup count vs offered rate and cluster size",
    "figure1.run_figure1",
    _figure1_metrics,
    node_keys=NODE_KEYS,
    workload_keys=frozenset({"requests", "rates", "node_counts", "chunk_size"}),
    claims=(
        _claim("more_nodes_never_slower",
               "at every rate, each larger cluster takes <= 1/0.95 of the time of the next smaller",
               _more_nodes_never_slower, lambda ratio: ratio >= 0.95),
        _claim("saturated_time_falls",
               "at 100k req/s, 1 node is slower than 2 and 2 slower than 4",
               _saturated_time_falls, lambda ratio: ratio > 1),
        _claim("low_rate_injection_limited",
               "at 20k req/s every cluster finishes within 1 +- 0.6 of requests/rate",
               _injection_limited(20_000), lambda ratio: abs(ratio - 1) <= 0.6),
        _claim("single_node_saturates", "one node achieves < 0.6 of the offered 100k req/s",
               _single_node_share, lambda share: share < 0.6),
        _claim("sixteen_nodes_keep_up", "16 nodes at 100k req/s finish within 1.5x requests/rate",
               _injection_limited(100_000, nodes=16), lambda ratio: ratio <= 1.5),
    ),
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


def _batching_gain(result: ScenarioResult) -> Optional[float]:
    """The smallest throughput(batch 128 or 2048) / throughput(batch 1) at any size."""
    throughput = _points(result, "throughput", "nodes", "batch_size")
    gains = [value / throughput[nodes, 1] for (nodes, batch), value in throughput.items()
             if batch in (128, 2048) and (nodes, 1) in throughput]
    return min(gains, default=None)


def _node_scaling(result: ScenarioResult) -> Optional[float]:
    """The smallest throughput(4 nodes) / throughput(1 node) at batch 128 or 2048."""
    throughput = _points(result, "throughput", "nodes", "batch_size")
    gains = [throughput[4, batch] / throughput[1, batch] for batch in (128, 2048)
             if (1, batch) in throughput and (4, batch) in throughput]
    return min(gains, default=None)


def _large_batch_ratio(result: ScenarioResult) -> Optional[float]:
    """throughput(2048) / throughput(128) at 3 or 4 nodes, the one farthest from 1."""
    throughput = _points(result, "throughput", "nodes", "batch_size")
    ratios = [throughput[nodes, 2048] / throughput[nodes, 128] for nodes in (3, 4)
              if (nodes, 128) in throughput and (nodes, 2048) in throughput]
    return max(ratios, key=lambda ratio: abs(math.log(ratio)), default=None)


_preset(
    "figure5",
    "Cluster throughput vs number of servers and batch size (full simulated stack)",
    "figure5.run_figure5",
    _figure5_metrics,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX | {"node_counts", "batch_sizes"},
    client_keys=frozenset({"num_clients", "num_web_servers", "window"}),
    claims=(
        _claim("batching_gain",
               "batches of 128 and of 2048 each beat batch 1 by > 8x at every cluster size",
               _batching_gain, lambda gain: gain > 8),
        _claim("node_scaling",
               "4 nodes beat 1 node by > 1.8x at batch 128 and at batch 2048",
               _node_scaling, lambda gain: gain > 1.8),
        _claim("large_batches_alike",
               "at 3 and 4 nodes, batch 2048 is within 2x of batch 128",
               _large_batch_ratio, lambda ratio: 0.5 < ratio < 2.0),
    ),
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
    "figure6.run_figure6",
    _figure6_metrics,
    cluster_keys=frozenset({"num_nodes", "virtual_nodes"}),
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
    claims=(
        _claim("even_shares", "each of the N nodes holds 1/N of the entries, +- 3 points",
               _metric("max_deviation_from_even"), lambda deviation: deviation < 0.03),
        _claim("storage_variation", "per-node entry counts vary by a coefficient < 0.05",
               _metric("coefficient_of_variation"), lambda variation: variation < 0.05),
        _claim("lookup_balance", "the busiest node serves < 1.15x the mean lookups",
               _metric("lookup_max_over_mean"), lambda peak: peak < 1.15),
    ),
)


# ----------------------------------------------------------------------- table1
def _table1_metrics(result: table1.Table1Result) -> Dict[str, Any]:
    return {
        "fingerprints": sum(row.measured.fingerprints for row in result.rows),
        "rows": [
            {
                "workload": row.workload,
                "fingerprints": row.measured.fingerprints,
                "target_fingerprints": row.target_fingerprints,
                "target_redundancy": row.target_redundancy,
                "measured_redundancy": row.measured.redundancy,
                "target_distance": row.target_distance,
                "measured_distance": row.measured.mean_duplicate_distance,
                "redundancy_error": row.redundancy_error,
            }
            for row in result.rows
        ],
    }


def _table1_workloads(result: ScenarioResult) -> Optional[List[str]]:
    if "profiles" in result.spec.workload:
        return None
    return sorted(row["workload"] for row in result.metrics["rows"])


def _worst_row(error: Callable[[Dict[str, Any]], float]) -> Callable[[ScenarioResult], float]:
    return lambda result: max(map(error, result.metrics["rows"]))


def _distance_error(row: Dict[str, Any]) -> float:
    target = row["target_distance"]
    return abs(row["measured_distance"] - target) / target if target else 0.0


_preset(
    "table1",
    "Workload characteristics: published targets vs generated traces",
    "table1.run_table1",
    _table1_metrics,
    workload_keys=_TABLE_I_MIX,
    claims=(
        _claim("four_workloads", "the run generates Table I's four workloads",
               _table1_workloads,
               lambda workloads: workloads == sorted(profile.name for profile in TABLE_I_PROFILES)),
        _claim("exact_counts", "every trace has exactly its target fingerprint count",
               _worst_row(lambda row: abs(row["fingerprints"] - row["target_fingerprints"])),
               lambda miss: miss == 0),
        _claim("redundancy", "every trace's redundancy is within 2 points of its target",
               _worst_row(lambda row: row["redundancy_error"]), lambda error: error < 0.02),
        _claim("duplicate_distance",
               "every trace's mean duplicate distance is within 30% of its target",
               _worst_row(_distance_error), lambda error: error < 0.30),
    ),
)


# ----------------------------------------------------------------- generational
def _run_generational(spec: ScenarioSpec) -> generational.GenerationalResult:
    """The workload section overrides fields of the runner's default backup cycle."""
    experiment = _experiment("generational")
    return experiment.run_generational_backup(
        config=replace(experiment.DEFAULT_CONFIG, **spec.workload),
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


def _later_generations(key: str) -> Callable[[ScenarioResult], Optional[float]]:
    """The smallest ``key`` over every generation after the first."""
    return lambda result: min((row[key] for row in result.metrics["rows"][1:]), default=None)


def _dedup_ratio_per_generation(result: ScenarioResult) -> float:
    return result.metrics["final_dedup_ratio"] / len(result.metrics["rows"])


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
    claims=(
        _claim("cold_first_generation", "nothing in the first full backup is redundant",
               lambda result: result.metrics["rows"][0]["redundancy"], lambda share: share == 0),
        _claim("later_generations_redundant", "every later generation is > 90% redundant",
               _later_generations("redundancy"), lambda share: share > 0.9),
        _claim("ram_absorbs_duplicates", "the RAM tier answers > 50% of every later generation",
               _later_generations("ram_hit_ratio"), lambda share: share > 0.5),
        _claim("dedup_ratio", "final dedup ratio / generations > 9/14 (a ratio of 4.5 at 7)",
               _dedup_ratio_per_generation, lambda ratio: ratio > 9 / 14),
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


def _latency_ratio(numerator: str, denominator: str) -> Callable[[ScenarioResult], Any]:
    """mean latency(``numerator``) / mean latency(``denominator``), over design names."""

    def observe(result: ScenarioResult) -> float:
        latency = {row["design"]: row["mean_latency_us"] for row in result.metrics["rows"]}
        return latency[numerator] / latency[denominator]

    return observe


_run_tier_ablation = _preset(
    "tier_ablation",
    "Index designs (disk, DDFS, ChunkStash, hybrid, RAM) head to head",
    "ablations.run_tier_ablation",
    _tier_ablation_metrics,
    workload_keys=frozenset({"scale", "profile"}),
    claims=(
        _claim("hybrid_beats_disk", "the hybrid node's mean latency is < 1/10 of the disk index's",
               _latency_ratio("shhc-hybrid", "disk-index"), lambda ratio: ratio < 0.1),
        _claim("hybrid_beats_ddfs", "the hybrid node is faster than DDFS",
               _latency_ratio("shhc-hybrid", "ddfs"), lambda ratio: ratio < 1),
        _claim("ddfs_beats_disk", "DDFS is faster than the disk index",
               _latency_ratio("ddfs", "disk-index"), lambda ratio: ratio < 1),
        _claim("hybrid_near_chunkstash", "the hybrid node is within 2x of ChunkStash",
               _latency_ratio("shhc-hybrid", "chunkstash"), lambda ratio: ratio < 2),
        _claim("ram_bounds_hybrid", "the RAM-only index is no slower than the hybrid node",
               _latency_ratio("ram-only", "shhc-hybrid"), lambda ratio: ratio <= 1),
        _claim("same_verdicts", "every design finds the same number of duplicates",
               lambda result: len({row["duplicates"] for row in result.metrics["rows"]}),
               lambda distinct: distinct == 1),
    ),
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


def _largest_over_smallest_batch(key: str) -> Callable[[ScenarioResult], Any]:
    """``key`` at the last batch size over ``key`` at the first (n/a below two sizes)."""

    def observe(result: ScenarioResult) -> Optional[float]:
        points = result.metrics["points"]
        return points[-1][key] / points[0][key] if len(points) > 1 else None

    return observe


_run_batch_tradeoff = _preset(
    "batch_tradeoff",
    "Throughput vs per-request latency as the query batch size grows",
    "ablations.run_batch_tradeoff",
    _batch_tradeoff_metrics,
    cluster_keys=frozenset({"num_nodes"}),
    workload_keys=frozenset({"scale", "batch_sizes"}),
    client_keys=frozenset({"num_clients"}),
    claims=(
        _claim("throughput_rises", "the largest batch has > 10x the throughput of the smallest",
               _largest_over_smallest_batch("throughput"), lambda gain: gain > 10),
        _claim("request_latency_rises", "a request of the largest batch waits longer",
               _largest_over_smallest_batch("mean_request_latency_ms"),
               lambda ratio: ratio > 1),
        _claim("chunk_latency_falls", "each chunk of the largest batch costs less time",
               _largest_over_smallest_batch("mean_per_chunk_latency_us"),
               lambda ratio: ratio < 1),
    ),
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
    "ablations.run_scaling_ablation",
    _scaling_ablation_metrics,
    cluster_keys=frozenset({"num_nodes", "virtual_nodes"}),
    workload_keys=frozenset({"scale", "profile"}),
    claims=(
        _claim("consistent_moves_less",
               "a join moves fewer entries under consistent hashing than under ranges",
               lambda result: (result.metrics["moved_fraction_consistent"]
                               / result.metrics["moved_fraction_range"]),
               lambda ratio: ratio < 1),
        _claim("consistent_moves_little", "a join moves < 45% of entries under consistent hashing",
               _metric("moved_fraction_consistent"), lambda moved: moved < 0.45),
        _claim("replication_doubles_entries", "replication factor 2 stores 1.9-2.1x the entries",
               _metric("replication_entry_overhead"), lambda overhead: 1.9 < overhead < 2.1),
        _claim("replication_keeps_lookup_cost",
               "replication factor 2 costs 1.0-1.5x the lookup latency",
               _metric("replication_latency_overhead"), lambda overhead: 1.0 <= overhead < 1.5),
    ),
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
#: The disruption runners' own default replication factor (each of
#: ``run_failover``, ``run_elasticity``, ``run_failover_timed``,
#: ``run_churn_timed`` says ``replication_factor: int = 2``); a claim reads
#: it for a spec that leaves the key out.
DISRUPTION_REPLICATION_FACTOR = 2


def _false_verdicts(result: ScenarioResult) -> Optional[int]:
    """False uniques + false duplicates; n/a below replication factor 2."""
    factor = result.spec.cluster.get("replication_factor", DISRUPTION_REPLICATION_FACTOR)
    if factor < 2:
        return None
    return result.metrics["false_uniques"] + result.metrics["false_duplicates"]


#: The claim every replicated disruption run must keep.
_NO_FALSE_VERDICTS = _claim(
    "no_false_verdicts",
    "at replication factor >= 2, no duplicate is reported new and no new one duplicate",
    _false_verdicts, lambda wrong: wrong == 0,
)


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
    "failover.run_failover",
    _failover_metrics,
    cluster_keys=_REPLICATED_CLUSTER,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
    client_keys=frozenset({"batch_size", "repair_on_recovery"}),
    accepts_faults=True,
    claims=(_NO_FALSE_VERDICTS,),
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
    "elasticity.run_elasticity",
    _elasticity_metrics,
    cluster_keys=_REPLICATED_CLUSTER,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
    client_keys=frozenset({"batch_size"}),
    accepts_churn=True,
    claims=(_NO_FALSE_VERDICTS,),
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
    "control_plane.run_failover_timed",
    _timed_metrics,
    cluster_keys=_REPLICATED_CLUSTER,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
    client_keys=frozenset({"batch_size", "offered_load"}),
    accepts_faults=True,
    claims=(_NO_FALSE_VERDICTS,),
)

_preset(
    "churn_timed",
    "Lookup p50/p99 and throughput during membership churn, migration costs charged",
    "control_plane.run_churn_timed",
    _timed_metrics,
    cluster_keys=_REPLICATED_CLUSTER,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
    client_keys=frozenset({"batch_size", "offered_load"}),
    accepts_churn=True,
    claims=(_NO_FALSE_VERDICTS,),
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
    "Kill a node mid-workload, restart from log+bloom image, measure recovery",
    "restart.run_restart",
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
    claims=(
        _claim("no_lost_acknowledged", "no acknowledged fingerprint is lost across the restart",
               _metric("lost_acknowledged"), lambda lost: lost == 0),
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
    return _experiment("service").run_service(**kwargs)


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
