"""Workload parameters and the metric contract read from ``BENCHMARK.json``.

Sizes were chosen for a 2-vCPU box: two worker processes, the gateway and the
load generator already fill both cores, so nothing here scales with ``nproc``.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Chunk size carried in every batch frame (the repo's synthetic default).
CHUNK_SIZE = 8192
#: How often one run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Closed-loop retry policy (``OVERLOADED``/``UNAVAILABLE``): 20 ms * 2^k.
MAX_RETRIES = 8
RETRY_BACKOFF_S = 0.02
#: Client shape pinned by the issue: 2 TCP connections x pipeline 4.
CONNECTIONS = 2
PIPELINE = 4
#: Batches of each ``svc_*`` stream the single-threaded replay covers.
REPLAY_BATCHES = 2000
#: ``lookup_batch`` calls the ``lib_cluster_rf2`` replay covers.
LIB_REPLAY_CALLS = 200
#: Open-loop sweep of the traced ``svc_open_mixed`` run: metric suffix and
#: rate as a share of the workload's own (60k fp/s -> 30k / 60k / 90k).
SWEEP_STEPS = (("r30k", 0.5), ("r60k", 1.0), ("r90k", 1.5))
#: A sweep step counts as sustained when its p99 stays at or below this.
SWEEP_P99_LIMIT_MS = 500.0
#: Host speed (``procfs.HostSpeed.mops``) of this box in its faster state at
#: the seed commit.  Time-based end-to-end metrics are reported in seconds of
#: a host running at exactly this speed (see ``to_reference_host``).
REFERENCE_MOPS = 1.9
#: Seconds between host-speed bursts while a service workload is timed.
BURST_INTERVAL_S = 0.05
#: Tracing is switched on and off in slices of this length inside a traced
#: run, so traced and untraced throughput are measured on the same state.
TRACE_SLICE_S = 0.1


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``kind`` selects the driver (svc / lib / sim)."""

    name: str
    kind: str
    #: Identities offered (and acknowledged) during set-up, before the clock.
    prepopulate: int = 0
    #: Probability that an offered fingerprint redraws a known identity.
    dup_fraction: float = 0.0
    batch_size: int = 256
    ram_cache_entries: int = 1_000_000
    #: ``0`` = closed loop; otherwise the fixed open-loop rate (fp/s).
    open_rate_fps: int = 0
    #: Fingerprints after which the closed loops drain once and the
    #: fixed-work readings (``rss_mb``, disk bytes) are taken, so memory does
    #: not grow with the speed of the program.  ``0`` = end of the window
    #: (the open loop offers a fixed count anyway).
    mark_fps: int = 0
    #: Kill node0 after the timed phase, time the recovery, audit every ack.
    kill_tail: bool = False
    #: ``sim`` only: (batch_size, scale) legs of one cycle.
    legs: Tuple[Tuple[int, float], ...] = ()
    #: ``--smoke``: set up once and calibrate briefly (correctness only).
    smoke: bool = False

    def setup_repeats(self, traced: bool) -> int:
        return 1 if traced or self.smoke else SETUP_REPEATS


#: Service settings shared by every ``svc_*`` workload (the stated flush
#: policy: no fsync, full snapshot every 100k container records per node).
SERVE_CONFIG: Dict[str, Any] = {
    "port": 0,
    "num_nodes": 2,
    "fsync": False,
    "snapshot_every": 100_000,
    "max_queue": 64,
    "max_inflight": 512,
    "codec": "json",
    "shared_bloom": False,
}
BLOOM_EXPECTED_ITEMS = 2_000_000

LIB_NODES = 4
LIB_REPLICATION = 2

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("svc_dup_hot", "svc", prepopulate=100_000, dup_fraction=0.95,
                 mark_fps=1_000_000),
        Workload("svc_unique", "svc", dup_fraction=0.05, mark_fps=400_000,
                 kill_tail=True),
        Workload("svc_open_mixed", "svc", prepopulate=200_000, dup_fraction=0.5,
                 ram_cache_entries=20_000, open_rate_fps=60_000),
        Workload("lib_cluster_rf2", "lib", prepopulate=200_000, dup_fraction=0.5,
                 batch_size=2048, ram_cache_entries=20_000, mark_fps=400_000),
        Workload("sim_figure5", "sim",
                 legs=((1, 0.00005), (128, 0.0005), (2048, 0.0005))),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload at 1/100 size (``--smoke``; correctness only)."""
    return replace(
        workload,
        smoke=True,
        prepopulate=workload.prepopulate // 100,
        mark_fps=workload.mark_fps // 100,
        open_rate_fps=workload.open_rate_fps // 10,
        ram_cache_entries=max(256, workload.ram_cache_entries // 100),
        legs=tuple((batch, scale / 10) for batch, scale in workload.legs),
    )


def node_config(workload: Workload) -> Dict[str, int]:
    return {
        "bloom_expected_items": BLOOM_EXPECTED_ITEMS,
        "ram_cache_entries": workload.ram_cache_entries,
    }


# --------------------------------------------------------------- metric contract
def load_contract(path: str = BENCHMARK_JSON) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(contract: Dict[str, Any], section: str) -> Dict[str, str]:
    """``{name: unit}`` of one section (``end_to_end`` / ``per_layer``)."""
    return {entry["name"]: entry["unit"] for entry in contract[section]}


def shape_metrics(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """Exactly the contract's metrics; a layer off this workload's path reads 0."""
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }


def to_reference_host(raw: Dict[str, float], host_mops: float,
                      fixed_rate: bool = False) -> Dict[str, float]:
    """Raw end-to-end readings restated in reference-host time.

    A run on a host ``k`` times slower than the reference takes ``k`` times
    as long for the same work; dividing times (multiplying rates) by ``k``
    removes the state of the host from the number, so runs taken minutes
    apart -- or on the two sides of a comparison -- can be set side by side.
    Memory is not a time and stays as measured, and so does the throughput
    of an open loop (``fixed_rate``): its schedule is set in real seconds.
    """
    slowdown = REFERENCE_MOPS / host_mops if host_mops > 0 else 1.0
    scaled = dict(raw)
    if not fixed_rate:
        scaled["fps"] = raw["fps"] * slowdown
    for name in ("rtt_p50_ms", "cpu_us_per_fp", "setup_s"):
        scaled[name] = raw[name] / slowdown
    return scaled


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(sorted_values: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of an already sorted list (``None`` if empty)."""
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]
