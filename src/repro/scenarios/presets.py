"""Built-in presets: every paper figure/table runner, spec-addressable.

Each preset maps a validated :class:`~repro.scenarios.spec.ScenarioSpec`
onto the corresponding experiment module in
:mod:`repro.analysis.experiments`, whose runner returns the run's metrics
in the uniform schema (see :mod:`repro.scenarios.result`).  A preset
states no default of its own: :func:`_call` forwards only the keys the
spec set, so an all-defaults spec *is* the runner's defaults.

Each preset states its table beside its claims, as a
:mod:`repro.analysis.reporting` layout over its metric names: a title
template, then rows (key/value tables), columns over a list metric, or a
pivot of ``points``.  The table reads nothing but the metrics, so a run's
JSON redraws it; ``tests/golden/`` pins every table byte for byte.

A preset names its runner by experiment module and function
(``"figure5.run_figure5"``) and imports that module on its first run; the
descriptions and accepted keys are all this module holds eagerly.  So
resolving, validating or listing a preset loads no experiment module, and
running one loads only the modules it runs -- ``figure5`` never pays for
the live service's asyncio gateway or the ablations' baselines.

Each preset carries the paper's findings it reproduces as named
:class:`~repro.scenarios.result.Claim` tuples.  A predicate reads only the
finished run's spec and metrics, so stating a claim -- or a table --
imports nothing.

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
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..analysis.reporting import Bars, Columns, If, Named, Pivot, Round, Rows, Section, Timeline
from ..core.config import HashNodeConfig
from ..workloads.profiles import TABLE_I_PROFILES, WorkloadProfile, profile_by_name
from .engine import Preset, register_preset
from .result import FAILS, HOLDS, NOT_APPLICABLE, Claim, ScenarioResult
from .spec import NODE_KEYS, ScenarioSpec, SpecError

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


def _call(runner: Callable[..., Dict[str, Any]], spec: ScenarioSpec) -> Dict[str, Any]:
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
            from ..workloads.mixer import table_i_mix  # loads the trace generator

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


def _call_named(target: str, spec: ScenarioSpec) -> Dict[str, Any]:
    """:func:`_call` on ``target``, named ``"<experiment module>.<function>"``."""
    module, function = target.split(".")
    return _call(getattr(_experiment(module), function), spec)


def _preset(
    name: str,
    description: str,
    run: Union[str, Callable[[ScenarioSpec], Dict[str, Any]]],
    **accepted: Any,
) -> Callable[[ScenarioSpec], ScenarioResult]:
    """Register preset ``name``; returns its spec -> :class:`ScenarioResult` runner.

    ``run`` produces the run's metrics: usually the name
    ``"<experiment module>.<function>"`` of a runner :func:`_call` feeds,
    else a spec -> metrics function that imports its experiment itself.
    ``accepted`` are the other :class:`Preset` fields (key sets, claims,
    table).
    """
    if isinstance(run, str):
        run = partial(_call_named, run)

    def runner(spec: ScenarioSpec) -> ScenarioResult:
        return ScenarioResult(spec=spec, metrics=run(spec))

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


# ----------------------------------------------------------------------- figure1
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
    table=Pivot("Figure 1: execution time for {fingerprints:,} requests", "points",
                row_header="req/s", row=Round("offered_rate"),
                column="nodes", column_header="{nodes} nodes (us)",
                cell=Round("execution_time_us")),
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
    table=Pivot("Figure 5: throughput of SHHC", "points",
                row_header="servers", row="nodes",
                column="batch_size", column_header="{batch_size} req (chunk/s)",
                cell=Round("throughput")),
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
_preset(
    "figure6",
    "Hash value storage distribution across cluster nodes (load balance)",
    "figure6.run_figure6",
    table=(
        Bars("Figure 6: hash value storage distribution ({num_nodes} nodes)", "per_node",
             label="node", fraction="share"),
        "",
        Columns("", "per_node", (
            ("node", "node"),
            ("entries", "entries"),
            ("share %", Round("share", 2, scale=100)),
            ("lookups", "lookups"),
        )),
        "coefficient of variation: {coefficient_of_variation:.4f}, "
        "max deviation from even: {max_deviation_from_even:.2%}",
    ),
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
    table=Columns("Table I: workload characteristics (scale={scale})", "rows", (
        ("workload", "workload"),
        ("fingerprints", "fingerprints"),
        ("target %red", "{target_redundancy:.0%}"),
        ("measured %red", "{measured_redundancy:.1%}"),
        ("target dist", Round("target_distance")),
        ("measured dist", Round("measured_distance")),
    )),
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
def _run_generational(spec: ScenarioSpec) -> Dict[str, Any]:
    """The workload section overrides fields of the runner's default backup cycle."""
    experiment = _experiment("generational")
    return experiment.run_generational_backup(
        config=replace(experiment.DEFAULT_CONFIG, **spec.workload),
        seed=spec.seed,
        **spec.cluster,
        **spec.node,
    )


def _later_generations(key: str) -> Callable[[ScenarioResult], Optional[float]]:
    """The smallest ``key`` over every generation after the first."""
    return lambda result: min((row[key] for row in result.metrics["rows"][1:]), default=None)


def _dedup_ratio_per_generation(result: ScenarioResult) -> float:
    return result.metrics["final_dedup_ratio"] / len(result.metrics["rows"])


_preset(
    "generational",
    "Repeated full backups: per-generation redundancy, cache hits, dedup ratio",
    _run_generational,
    table=Columns("Ablation D: repeated full backups on a {num_nodes}-node cluster", "rows", (
        ("generation", "generation"),
        ("chunks", "chunks"),
        ("redundant", "{redundancy:.1%}"),
        ("served from RAM", "{ram_hit_ratio:.1%}"),
        ("cumulative dedup", Round("cumulative_dedup_ratio", 2)),
    )),
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
def _latency_ratio(numerator: str, denominator: str) -> Callable[[ScenarioResult], Any]:
    """mean latency(``numerator``) / mean latency(``denominator``), over design names."""

    def observe(result: ScenarioResult) -> float:
        latency = {row["design"]: row["mean_latency_us"] for row in result.metrics["rows"]}
        return latency[numerator] / latency[denominator]

    return observe


_TIER_ABLATION_TABLE = Columns("Ablation A: index designs on the same workload", "rows", (
    ("design", "design"),
    ("lookups", "lookups"),
    ("duplicates", "duplicates"),
    ("mean latency (us)", Round("mean_latency_us", 1)),
))

_run_tier_ablation = _preset(
    "tier_ablation",
    "Index designs (disk, DDFS, ChunkStash, hybrid, RAM) head to head",
    "ablations.run_tier_ablation",
    table=_TIER_ABLATION_TABLE,
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
def _largest_over_smallest_batch(key: str) -> Callable[[ScenarioResult], Any]:
    """``key`` at the last batch size over ``key`` at the first (n/a below two sizes)."""

    def observe(result: ScenarioResult) -> Optional[float]:
        points = result.metrics["points"]
        return points[-1][key] / points[0][key] if len(points) > 1 else None

    return observe


_BATCH_TRADEOFF_TABLE = Columns("Ablation B: batch size trade-off ({num_nodes} nodes)", "points", (
    ("batch", "batch_size"),
    ("chunk/s", Round("throughput")),
    ("request latency (ms)", Round("mean_request_latency_ms", 3)),
    ("per-chunk latency (us)", Round("mean_per_chunk_latency_us", 1)),
))

_run_batch_tradeoff = _preset(
    "batch_tradeoff",
    "Throughput vs per-request latency as the query batch size grows",
    "ablations.run_batch_tradeoff",
    table=_BATCH_TRADEOFF_TABLE,
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
_SCALING_ABLATION_TABLE = (
    Rows("Ablation C: scaling a {num_nodes}-node cluster to {joined_nodes} nodes "
         "({fingerprints:,} fingerprints)", (
        ("range partitioner", "{moved_fraction_range:.1%}", "{balance_after_range:.3f}"),
        ("consistent hashing", "{moved_fraction_consistent:.1%}", "{balance_after_consistent:.3f}"),
    ), headers=("partitioner", "entries moved on join", "post-join max/mean")),
    "replication factor 2: {replication_entry_overhead:.2f}x stored entries, "
    "{replication_latency_overhead:.2f}x mean lookup cost",
)

_run_scaling_ablation = _preset(
    "scaling_ablation",
    "Join-time data movement (range vs consistent hashing) and replication overhead",
    "ablations.run_scaling_ablation",
    table=_SCALING_ABLATION_TABLE,
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
    return ScenarioResult(spec=spec, metrics=metrics)


register_preset(
    Preset(
        name="ablations",
        description="All three ablation studies (tiers, batching, scaling) in one run",
        runner=_run_ablations,
        workload_keys=frozenset({"scale"}),
        table=(
            Section("tier_ablation", _TIER_ABLATION_TABLE),
            "",
            Section("batch_tradeoff", _BATCH_TRADEOFF_TABLE),
            "",
            Section("scaling_ablation", _SCALING_ABLATION_TABLE),
        ),
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


#: Row groups the disruption presets' tables share.
_CLUSTER_ROWS = (
    ("replication factor", "replication_factor"),
    ("virtual nodes", "virtual_nodes"),
    ("batch size", "batch_size"),
)
_AUDIT_ROWS = (
    ("dedup errors", "dedup_errors"),
    ("  false uniques", "false_uniques"),
    ("  false duplicates", "false_duplicates"),
    ("dedup accuracy %", Round("dedup_accuracy", 4, scale=100)),
)
_REPLICATION_ROWS = (
    ("distinct fingerprints", "distinct_fingerprints"),
    ("total stored copies", "total_stored"),
    ("fully replicated", "fully_replicated"),
    ("under-replicated", "under_replicated"),
    ("lost", "lost"),
)
_UNSERVED_ROW = If("unserved", ("unserved lookups", "unserved"))


_preset(
    "failover",
    "Dedup accuracy and latency under injected failures (crashes and grey failures)",
    "failover.run_failover",
    table=(
        Rows("Failover: dedup accuracy under injected node failures "
             "({num_nodes} nodes, k={replication_factor})", (
            ("nodes", "num_nodes"),
            *_CLUSTER_ROWS,
            ("fingerprints", "fingerprints"),
            ("batches", "batches"),
            ("crashes injected", "crashes"),
            ("recoveries", "recoveries"),
            *_AUDIT_ROWS,
            ("read repairs", "read_repairs"),
            ("failovers", "failovers"),
            ("replica inserts", "replica_inserts"),
            ("repaired copies", "repaired_copies"),
            *_REPLICATION_ROWS,
            _UNSERVED_ROW,
            If("grey_drops", ("grey drops", "grey_drops")),
            ("mean latency (faulty) us", Round("mean_latency_us", 2)),
            ("mean latency (baseline) us", Round("baseline_mean_latency_us", 2)),
            ("latency overhead %", Round("latency_overhead", 2, scale=100)),
        )),
        If("events", "", Timeline("events", "schedule: ", "t={0:g} {1} {2}")),
    ),
    cluster_keys=_REPLICATED_CLUSTER,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
    client_keys=frozenset({"batch_size", "repair_on_recovery"}),
    accepts_faults=True,
    claims=(_NO_FALSE_VERDICTS,),
)


_preset(
    "elasticity",
    "Dedup accuracy and migration traffic under membership churn (joins/leaves)",
    "elasticity.run_elasticity",
    table=(
        Rows("Elasticity: dedup accuracy under membership churn "
             "({num_nodes} nodes, k={replication_factor})", (
            ("initial nodes", "num_nodes"),
            ("final nodes", "final_nodes"),
            *_CLUSTER_ROWS,
            ("fingerprints", "fingerprints"),
            ("batches", "batches"),
            ("joins", "joins"),
            ("leaves", "leaves"),
            *_AUDIT_ROWS,
            ("entries moved", "entries_moved"),
            ("moved fraction %", Round("moved_fraction", 2, scale=100)),
            ("  primary moves", "primary_moves"),
            ("  replica copies", "replica_copies"),
            ("replica drops", "replica_drops"),
            ("read repairs", "read_repairs"),
            ("replica inserts (write path)", "replica_inserts"),
            *_REPLICATION_ROWS,
            If("skipped_events", ("skipped churn events", "skipped_events")),
        )),
        If("events", "", Timeline("events", "churn: ", "t={0:g} {1} {2} (moved {3})")),
    ),
    cluster_keys=_REPLICATED_CLUSTER,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
    client_keys=frozenset({"batch_size"}),
    accepts_churn=True,
    claims=(_NO_FALSE_VERDICTS,),
)


def _phase_rows(*phases: str) -> Tuple[If, ...]:
    """Each phase's lookups, p50 and p99 rows, where the run had that phase."""
    return tuple(
        If(
            f"{phase}_lookups",
            (f"{phase} lookups", f"{phase}_lookups"),
            (f"{phase} p50 us", Round(f"{phase}_p50_latency_us", 2)),
            (f"{phase} p99 us", Round(f"{phase}_p99_latency_us", 2)),
        )
        for phase in phases
    )


def _timed_table(preset: str, taxed_phase: str) -> Rows:
    """A timed preset's table; ``taxed_phase`` is the phase its p99 tax compares to steady."""
    return Rows(preset + ": lookup latency during control-plane work "
                "({num_nodes} nodes, k={replication_factor})", (
        ("nodes", "num_nodes"),
        *_CLUSTER_ROWS,
        ("offered load", "offered_load"),
        ("fingerprints", "fingerprints"),
        ("batches", "batches"),
        ("arrival interval us", Round("arrival_interval_us", 2)),
        ("throughput (lookups/s)", Round("throughput", 1)),
        ("control-plane CPU ms", Round("control_plane_cpu_seconds", 3, scale=1e3)),
        (f"p99 tax ({taxed_phase}/steady)", Round("p99_tax", 3)),
        _UNSERVED_ROW,
        *_phase_rows("steady", taxed_phase, "warmup"),
        Named("counters"),
    ))


_preset(
    "failover_timed",
    "Lookup p50/p99 and throughput during outages, control-plane costs charged",
    "control_plane.run_failover_timed",
    table=_timed_table("failover_timed", "degraded"),
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
    table=_timed_table("churn_timed", "migrating"),
    cluster_keys=_REPLICATED_CLUSTER,
    node_keys=NODE_KEYS,
    workload_keys=_TABLE_I_MIX,
    client_keys=frozenset({"batch_size", "offered_load"}),
    accepts_churn=True,
    claims=(_NO_FALSE_VERDICTS,),
)


_preset(
    "restart",
    "Kill a node mid-workload, restart from log+bloom image, measure recovery",
    "restart.run_restart",
    table=Rows("restart: kill/restart recovery "
               "({num_nodes} nodes, k={replication_factor}, {restart_mode})", (
        ("nodes", "num_nodes"),
        ("replication factor", "replication_factor"),
        ("batch size", "batch_size"),
        ("offered load", "offered_load"),
        ("warm restart (snapshot)", "warm_restart"),
        ("snapshot cadence (records)", "snapshot_every"),
        ("victim", "victim"),
        ("kill batch / restart batch", "{kill_batch} / {restart_batch}"),
        ("fingerprints", "fingerprints"),
        ("batches", "batches"),
        ("arrival interval us", Round("arrival_interval_us", 2)),
        ("throughput (lookups/s)", Round("throughput", 1)),
        ("recovery time ms (charged)", Round("recovery_time_ms", 3)),
        ("recovery wall ms", Round("recovery_wall_ms", 3)),
        ("recovered entries", "recovered_entries"),
        ("replayed tail records", "replayed_records"),
        ("snapshot loaded", "snapshot_loaded"),
        ("snapshot bytes", "snapshot_bytes"),
        ("dedup accuracy", Round("dedup_accuracy", 6)),
        ("acknowledged before kill", "acknowledged"),
        ("lost acknowledged", "lost_acknowledged"),
        ("degraded p99 tax", Round("degraded_p99_tax", 3)),
        ("recovery p99 tax", Round("recovery_p99_tax", 3)),
        _UNSERVED_ROW,
        If("dedup_errors", ("false uniques", "false_uniques"),
           ("false duplicates", "false_duplicates")),
        *_phase_rows("steady", "degraded", "recovering", "warmup"),
        Named("counters"),
    )),
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
def _run_service(spec: ScenarioSpec) -> Dict[str, Any]:
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


_preset(
    "service",
    "Boot the real serving stack (TCP gateway + worker processes) and load it",
    _run_service,
    table=Rows("Service (live gateway + workers)", (
        ("nodes (worker processes)", "num_nodes"),
        ("clients x pipeline", "{clients} x {pipeline}"),
        ("offered fingerprints", "fingerprints"),
        ("acknowledged", "acknowledged"),
        ("throughput (fp/s)", "{throughput:,.0f}"),
        ("p50 latency (us)", "{p50_latency_us:,.0f}"),
        ("p99 latency (us)", "{p99_latency_us:,.0f}"),
        ("sheds", "sheds"),
        ("retries", "retries"),
        ("worker restarts", "worker_restarts"),
        ("audited / lost acknowledged", "{audit_checked:,} / {lost_acknowledged}"),
    )),
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
