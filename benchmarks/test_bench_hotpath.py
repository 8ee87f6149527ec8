"""Benchmark: data-plane hot paths, with a machine-readable perf trajectory.

The paper's *simulated* results are not benchmarked here: each preset
states the findings it reproduces as named claims, checked on every run
(``tests/test_paper_claims.py``).  This suite measures the real wall-clock
throughput of the code paths every byte of backup data funnels through:

* content-defined chunking MB/s -- the Rabin reference oracle vs. the
  table-driven gear engine (``baseline`` vs. ``fast`` series);
* bloom filter probes/s -- re-hash-per-probe (SHA-256) vs. the digest-key
  fast path with batched probes;
* cuckoo hash ops/s -- BLAKE2b-per-op vs. the digest-key fast path;
* packed whole-batch bloom ``add_many``/``contains_many`` vs. a loop over
  the per-key ``add``/``in`` (the vectorized data plane's isolated win);
* the control-plane tax (degraded / steady p99, deterministic virtual
  time);
* one scenario-sweep wall clock, sequential vs. ``run_sweep(workers=N)``
  on a process pool (the speedup column needs real cores; the JSON
  records ``cpu_count``).

What ``bench/`` measures with repeats and a spread is not re-measured here
single-shot: the event engine (``sim_engine.events_per_s``), the in-process
cluster (``lib_cluster_rf2``), the live service (``svc_*``) and the node's
fused kernel (``hash_node.serve_us_per_fp``).

Every number here is wall-clock, so the run writes only under the
git-ignored ``benchmarks/out/``: ``BENCH_hotpath.json`` and the rendered
``results/hotpath.txt``.  The JSON carries both the ``baseline`` and
``fast`` series from the same process on the same data, so every future PR
can be compared against the recorded trajectory (CI uploads the file as an
artifact).  The committed baseline -- ``BENCH_hotpath.json`` at the
repository root and ``benchmarks/results/hotpath.txt`` -- changes only when
someone copies a run over it on purpose::

    cp benchmarks/out/BENCH_hotpath.json BENCH_hotpath.json
    cp benchmarks/out/results/hotpath.txt benchmarks/results/hotpath.txt

``REPRO_BENCH_SCALE`` scales every workload size (1.0 by default, e.g.
``REPRO_BENCH_SCALE=5 pytest benchmarks/``).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import time
from pathlib import Path

import pytest

from repro.analysis.reporting import format_table
from repro.dedup.chunking import ContentDefinedChunker
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.storage.bloom import BloomFilter
from repro.storage.cuckoo import CuckooHashTable

OUT_DIR = Path(__file__).resolve().parent / "out"
BENCH_JSON = OUT_DIR / "BENCH_hotpath.json"


@pytest.fixture
def scale() -> float:
    """``REPRO_BENCH_SCALE``, floored at 0.05; 1.0 when unset or unparsable."""
    try:
        return max(0.05, float(os.environ.get("REPRO_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


class _SeedBloomFilter:
    """The seed repository's bloom-filter data path, pinned verbatim.

    This is the pre-fast-path implementation (SHA-256 per operation, the
    ``_indexes`` generator, one ``_set_bit``/``_get_bit`` method call per
    index) kept here as the benchmark's *baseline* so the before/after
    comparison stays honest as the library version evolves.
    """

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        import hashlib

        self._sha256 = hashlib.sha256
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)

    def _indexes(self, key: bytes):
        digest = self._sha256(key).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:16], "big") | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def _set_bit(self, index: int) -> None:
        self._bits[index >> 3] |= 1 << (index & 7)

    def _get_bit(self, index: int) -> bool:
        return bool(self._bits[index >> 3] & (1 << (index & 7)))

    def add(self, key: bytes) -> None:
        for index in self._indexes(key):
            self._set_bit(index)

    def __contains__(self, key: bytes) -> bool:
        return all(self._get_bit(index) for index in self._indexes(key))


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _timed_best(fn, repeats: int = 3):
    """Best-of-N timing for *read-only* phases (standard microbenchmark
    noise reduction; both sides of every speedup ratio get it equally)."""
    best = None
    result = None
    for _ in range(repeats):
        elapsed, result = _timed(fn)
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _bench_chunking(scale: float) -> dict:
    size = max(262_144, int(1_200_000 * scale))
    data = random.Random(1234).randbytes(size)
    gear = ContentDefinedChunker(average_size=8192, engine="gear")
    rabin = ContentDefinedChunker(average_size=8192, engine="rabin")
    # Warm-up (table construction, allocator) outside the timed region.
    sum(chunk.size for chunk in gear.chunk(data[:65_536]))
    gear_time, gear_chunks = _timed_best(lambda: sum(1 for _ in gear.chunk(data)))
    rabin_time, rabin_chunks = _timed_best(lambda: sum(1 for _ in rabin.chunk(data)))
    return {
        "unit": "MB/s",
        "baseline": {
            "engine": "rabin",
            "mb_per_s": size / 1e6 / rabin_time,
            "chunks": rabin_chunks,
            "input_bytes": size,
        },
        "fast": {
            "engine": "gear",
            "mb_per_s": size / 1e6 / gear_time,
            "chunks": gear_chunks,
            "input_bytes": size,
        },
        "speedup": rabin_time / gear_time,
    }


def _bench_bloom(scale: float) -> dict:
    count = max(5_000, int(50_000 * scale))
    present = [synthetic_fingerprint(i).digest for i in range(count)]
    absent = [synthetic_fingerprint(10_000_000 + i).digest for i in range(count)]
    probes = present + absent

    fast = BloomFilter(expected_items=count, digest_keys=True)
    baseline = _SeedBloomFilter(num_bits=fast.num_bits, num_hashes=fast.num_hashes)

    def _baseline_add():
        add = baseline.add
        for key in present:
            add(key)

    def _baseline_probe():
        return sum(1 for key in probes if key in baseline)

    baseline_add_time, _ = _timed(_baseline_add)
    baseline_time, baseline_hits = _timed_best(_baseline_probe)
    fast_add_time, _ = _timed(lambda: fast.add_many(present))
    fast_time, fast_hits = _timed_best(lambda: sum(fast.contains_many(probes)))
    assert baseline_hits >= count and fast_hits >= count  # no false negatives
    return {
        "unit": "probes/s",
        "baseline": {
            "hashing": "sha256-per-probe",
            "ops_per_s": len(probes) / baseline_time,
            "add_ops_per_s": len(present) / baseline_add_time,
            "probes": len(probes),
        },
        "fast": {
            "hashing": "digest-key+batched",
            "ops_per_s": len(probes) / fast_time,
            "add_ops_per_s": len(present) / fast_add_time,
            "probes": len(probes),
        },
        "speedup": baseline_time / fast_time,
        "add_speedup": baseline_add_time / fast_add_time,
    }


def _bench_cuckoo(scale: float) -> dict:
    count = max(5_000, int(30_000 * scale))
    keys = [synthetic_fingerprint(i).digest for i in range(count)]
    probes = keys + [synthetic_fingerprint(20_000_000 + i).digest for i in range(count)]

    baseline = CuckooHashTable(initial_buckets=1024, digest_keys=False)
    fast = CuckooHashTable(initial_buckets=1024, digest_keys=True)

    for index, key in enumerate(keys):  # build outside the timed probe phase
        baseline.put(key, index)
        fast.put(key, index)
    baseline_time, baseline_hits = _timed_best(
        lambda: sum(1 for key in probes if baseline.get(key) is not None)
    )
    fast_time, fast_hits = _timed_best(
        lambda: sum(1 for key in probes if fast.get(key) is not None)
    )
    assert baseline_hits == fast_hits == count
    ops = len(probes)
    return {
        "unit": "gets/s",
        "baseline": {"hashing": "blake2b-per-op", "ops_per_s": ops / baseline_time, "ops": ops},
        "fast": {"hashing": "digest-key", "ops_per_s": ops / fast_time, "ops": ops},
        "speedup": baseline_time / fast_time,
    }


def _bench_vectorized(scale: float) -> dict:
    """Packed whole-batch bloom calls vs a loop over the per-key functions.

    Both legs run the *library's own* code on identical filters: the
    per-key ``add``/``in`` are the reference the batch routes are
    differentially tested against (tests/test_vectorized_kernels.py), so
    this ratio isolates the win of the contiguous-digest-buffer data plane
    -- one ``struct`` unpack per batch plus an exec-generated whole-batch
    loop -- over per-key dispatch.  Verdicts and final bits must match bit
    for bit; ``cpu_count`` rides along because CI floor checks treat small
    runners differently.
    """
    count = max(5_000, int(40_000 * scale))
    keys = [synthetic_fingerprint(i).digest for i in range(count)]
    probes = keys + [synthetic_fingerprint(30_000_000 + i).digest for i in range(count)]

    per_key_bloom = BloomFilter(expected_items=count, digest_keys=True)
    packed_bloom = BloomFilter(expected_items=count, digest_keys=True)

    def _per_key_add():
        add = per_key_bloom.add
        for key in keys:
            add(key)

    per_key_add_time, _ = _timed(_per_key_add)
    packed_add_time, _ = _timed(lambda: packed_bloom.add_many(keys))
    assert per_key_bloom.raw_bits() == packed_bloom.raw_bits()
    per_key_probe_time, per_key_verdicts = _timed_best(
        lambda: [key in per_key_bloom for key in probes]
    )
    packed_probe_time, packed_verdicts = _timed_best(lambda: packed_bloom.contains_many(probes))
    assert per_key_verdicts == packed_verdicts
    assert sum(packed_verdicts) >= count  # no false negatives

    return {
        "unit": "probes/s (packed batch vs per-key loop)",
        "cpu_count": os.cpu_count() or 1,
        "baseline": {
            "path": "loop over per-key add / in",
            "ops_per_s": len(probes) / per_key_probe_time,
            "bloom_add_ops_per_s": count / per_key_add_time,
            "probes": len(probes),
        },
        "fast": {
            "path": "packed digest buffer + whole-batch add_many / contains_many",
            "ops_per_s": len(probes) / packed_probe_time,
            "bloom_add_ops_per_s": count / packed_add_time,
            "probes": len(probes),
        },
        "speedup": per_key_probe_time / packed_probe_time,
        "bloom_add_speedup": per_key_add_time / packed_add_time,
    }


def _bench_sweep(scale: float) -> dict:
    """Wall-clock of one scenario sweep, sequential vs process pool.

    The grid is fixed (scenario scale 0.0005, four failover points) rather
    than scaled by ``REPRO_BENCH_SCALE``: pool startup is a constant cost,
    so shrinking the per-point work would benchmark the pool, not the
    sweep.  ``workers`` is capped by the visible CPUs; on a single-core
    box the recorded speedup is honestly ~1x (the determinism guarantee,
    not the speedup, is the portable property -- see docs/scenarios.md).
    """
    del scale
    from repro.scenarios import SweepGrid, run_sweep, spec_for

    spec = spec_for("failover", scale=0.0005)
    grid = SweepGrid(axes={"replication_factor": [1, 2], "outage_density": [0.2, 0.4]})
    workers = min(4, os.cpu_count() or 1)
    sequential_elapsed, sequential = _timed(lambda: run_sweep(spec, grid))
    parallel_elapsed, parallel = _timed(lambda: run_sweep(spec, grid, workers=workers))
    assert sequential.to_json() == parallel.to_json()  # determinism guarantee
    return {
        "unit": "speedup (sequential wall-clock / parallel)",
        "points": len(grid),
        "cpu_count": os.cpu_count() or 1,
        "baseline": {"wall_clock_s": sequential_elapsed, "workers": 1},
        "fast": {"wall_clock_s": parallel_elapsed, "workers": workers},
        "speedup": sequential_elapsed / parallel_elapsed,
    }


def _bench_control_plane(scale: float) -> dict:
    """The control-plane tax, measured in deterministic virtual time.

    Runs ``run_failover_timed`` (cost model on, rolling outage) and records
    the degraded/steady p99 lookup-latency ratio as the series' ``speedup``
    field: the replication-tax figure the cost model exists to surface.
    Unlike the wall-clock series, both sides live on the ledger's virtual
    clock, so the ratio is exactly reproducible on any machine -- but only
    for a fixed workload, hence ``REPRO_BENCH_SCALE`` is ignored (CI
    regenerates at a smaller scale and compares against the committed
    value via tools/check_bench_floors.py).  A change that silently makes
    the control plane free again collapses the ratio to ~1.0 and trips
    the floor guard.
    """
    del scale
    from repro.analysis.experiments.control_plane import run_failover_timed

    result = run_failover_timed(scale=0.001, seed=0)
    steady, degraded = result.steady, result.taxed
    assert steady is not None and degraded is not None
    return {
        "unit": "p99 tax (degraded p99 / steady p99, virtual time)",
        "baseline": {
            "phase": "steady",
            "lookups": steady.count,
            "p50_latency_us": steady.p50 * 1e6,
            "p99_latency_us": steady.p99 * 1e6,
        },
        "fast": {
            "phase": "degraded",
            "lookups": degraded.count,
            "p50_latency_us": degraded.p50 * 1e6,
            "p99_latency_us": degraded.p99 * 1e6,
        },
        "offered_load": result.offered_load,
        "replica_writes": result.counters.get("replica_writes", 0),
        "control_plane_cpu_seconds": result.control_plane_cpu_seconds,
        "speedup": result.p99_tax,
    }


def test_bench_hotpath(scale):
    benches = {
        "chunking": _bench_chunking,
        "bloom_probe": _bench_bloom,
        "cuckoo_ops": _bench_cuckoo,
        "vectorized_lookup": _bench_vectorized,
        "sweep_wall_clock": _bench_sweep,
        "control_plane_tax": _bench_control_plane,
    }
    series = {}
    for name, bench in benches.items():
        # Start every series from a collected heap: the single-shot legs
        # otherwise pay, inside their timed region, for whatever garbage
        # the series before them left behind.
        gc.collect()
        series[name] = bench(scale)

    payload = {
        "schema": "repro-shhc-bench/1",
        "generated_by": "benchmarks/test_bench_hotpath.py",
        "generated_at_unix": round(time.time(), 3),
        "scale": scale,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "series": series,
    }
    out_results = OUT_DIR / "results"
    out_results.mkdir(parents=True, exist_ok=True)
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    rows = []
    for name, entry in series.items():
        baseline = entry.get("baseline")
        fast = entry["fast"]

        def _headline(record):
            if record is None:
                return "-"
            for key in (
                "mb_per_s",
                "ops_per_s",
                "wall_clock_s",
                "p99_latency_us",
            ):
                if key in record:
                    return round(record[key], 2)
            return "-"

        rows.append(
            [
                name,
                entry["unit"],
                _headline(baseline),
                _headline(fast),
                round(entry["speedup"], 2) if "speedup" in entry else "-",
            ]
        )
    rendered = format_table(
        ["hot path", "unit", "baseline", "fast", "speedup"],
        rows,
        title=f"Data-plane hot-path throughput (scale={scale})",
    )
    print()
    print(rendered)
    (out_results / "hotpath.txt").write_text(rendered + "\n", encoding="utf-8")

    # Speedup floors.  This file is also collected by the functional tier-1
    # run (`pytest -x -q`), where a wall-clock assertion must never fail a
    # code gate -- tracing (--cov, debuggers) or a throttled machine can
    # compress timing ratios without any code defect.  The floors are
    # therefore only enforced when REPRO_BENCH_STRICT=1, which the dedicated
    # CI perf job sets (measured margins there: chunking ~6-7x vs the 5x
    # floor, bloom ~3.8-4x vs 3x; both sides of each ratio run in the same
    # process on the same data, so the ratios are machine-independent).
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        floors = {
            "chunking": 5.0,
            "bloom_probe": 3.0,
            # Single-key gets on both legs (digest-key words vs BLAKE2b per
            # op; measured 1.2-1.5x since the batch get left with PR 15).
            "cuckoo_ops": 1.1,
            # Packed whole-batch bloom probes vs a loop over the per-key
            # probe on identical filters (same process, same data; measured
            # 1.1-1.5x -- the per-key probe is itself unrolled, so the
            # floor only says the batch route must not lose).
            "vectorized_lookup": 1.0,
            # Virtual-time ratio (deterministic): degraded p99 must stay
            # measurably above steady p99 while the cost model is charging.
            "control_plane_tax": 1.2,
        }
        for name, floor in floors.items():
            assert series[name]["speedup"] >= floor, (name, floor, series[name])
        # The parallel-sweep speedup needs actual cores; a 1-CPU runner
        # honestly records ~1x, so the floor only applies at >= 4 cores.
        if series["sweep_wall_clock"]["cpu_count"] >= 4:
            assert series["sweep_wall_clock"]["speedup"] >= 2.0, series["sweep_wall_clock"]
    # The JSON must carry both series of the before/after comparison.
    on_disk = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    assert on_disk["series"]["chunking"]["baseline"] and on_disk["series"]["chunking"]["fast"]
