#!/usr/bin/env python
"""cProfile driver for the two throughput-critical paths.

Prints the top cumulative-time functions for

* a **cluster-lookup run**: the immediate-mode routed-batch path the
  ``cluster_lookup`` series in ``BENCH_hotpath.json`` measures (16k
  fingerprints through a 4-node replicated cluster in 128-fingerprint
  batches), and
* a **sweep run**: a small ``run_sweep`` grid over the failover preset,
  the per-point cost the parallel sweep executor amortises.

Usage::

    PYTHONPATH=src python tools/profile_hotpath.py            # both targets
    PYTHONPATH=src python tools/profile_hotpath.py cluster    # one target
    PYTHONPATH=src python tools/profile_hotpath.py sweep --top 30
    PYTHONPATH=src python tools/profile_hotpath.py cluster --gc --requests 800000 --batch 2048
    PYTHONPATH=src python tools/profile_hotpath.py persist --entries 240000
    PYTHONPATH=src python tools/profile_hotpath.py serve --requests 512000
    PYTHONPATH=src python tools/profile_hotpath.py sim

``cluster --gc`` adds the cyclic collector's account of the same path,
measured with cProfile off on a caller shaped like ``bench/``'s
``lib_cluster_rf2`` (pre-populated cluster, half of every batch new, every
``Fingerprint`` ever offered retained by the caller): collector seconds and
passes per generation inside ``lookup_batch``, their share of call time, the
slowest calls with their collector time, net container allocations per key,
and the collector-off split of a call into bucket / serve / propagate /
merge.  A full pass walks whatever the *caller* keeps alive, so its cost
scales with ``--requests``; the pass *count* scales with what the batch path
allocates per key.

``persist`` is the write side of a first full backup on one node at
``bench/``'s ``node_config`` (no cProfile): 128-key batches served and then
logged, us per new fingerprint in ``log_insert_many``, ms per
``take_snapshot`` at every 100k entries, disk bytes per fingerprint by file,
and open + ``recover_into`` ms into a fresh node, asserting the recovered
node equals the live one.  It then reads the node's ``SSDHashStore`` on its
own at the same geometry and key count: allocate ms, fill ms
(``put_many_verdicts``), membership probe us/key and resident MB per store.
It calls public names only, so it runs on any commit since PR 7
(``PYTHONPATH=<that checkout>/src``).

``serve`` is the serving worker's batch path, in-process and with cProfile
off, on one persistence-backed node at ``bench/``'s ``node_config`` and its
128-digest sub-batches, once per live mix (``svc_dup_hot``: 50k keys
pre-populated, 95% of every batch known; ``svc_unique``: 95% new): us per
fingerprint for frame decode, ``DigestBatch.from_blob``, the fused kernel,
modelled-time recording inside the contract, the rest of the node's serve,
``log_insert_many`` and mask + encode, with the unattributed remainder,
rows summing to the total; then what the same recording costs where
``lookup_batch`` pays it.  No socket, no gateway, no checkpoints
(``snapshot_every=0``).  It wraps the node's private ``_kernel`` slot, which
exists since PR 24: older checkouts need that commit's copy of this file.

``sim`` is ``bench/``'s ``sim_figure5`` cycle leg by leg (no cProfile):
``run_scenario("figure5")`` on 4 nodes at each of the three legs, cold
(the trace memo cleared, as the bench does), twelve times, and per leg the
mean seconds in trace generation (``WorkloadMix.streams``), in
``Simulator.run`` and in the rest (deployment, client set-up, result),
rows summing to the leg.  The same runs are then split by layer: a stdlib
``signal.setitimer(ITIMER_PROF)`` sampler (0.5 ms of CPU) charges each
sample inside ``Simulator.run`` to the module of its innermost ``repro``
frame -- links (``network.link`` / ``switch``), RPC + front end (the rest
of ``network``, ``frontend``), node serve (``core``, ``storage``, the
CPU/SSD ``Resource``) with the exec-generated fused kernel apart, reply
assembly (``core.protocol``, ``frontend.upload_plan``), the engine (the
rest of ``simulation``: calendar, events and, on a commit that still has
``simulation/process.py``, generator processes) -- and a sample taken while the cyclic collector runs to the
collector; ``dedup.fingerprint`` (the column builder) and
``simulation.stats`` are charged to their caller.  It wraps public names
and classifies by module only, so ``PYTHONPATH=<other checkout>/src``
splits another commit's legs the same way.

Perf PRs should start from this data: optimise what is hot, pin what must
stay byte-identical (see ``tests/test_routed_batch_equivalence.py``).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import os
import pstats
import random
import sys
import tempfile
import time


def _cluster(requests: int):
    from repro.core.cluster import SHHCCluster
    from repro.core.config import ClusterConfig, HashNodeConfig

    return SHHCCluster(ClusterConfig(
        num_nodes=4,
        replication_factor=2,
        node=HashNodeConfig(
            ram_cache_entries=4_096,
            bloom_expected_items=max(20_000, requests),
            ssd_buckets=1 << 12,
        ),
    ))


def profile_cluster(top: int, requests: int, batch_size: int) -> None:
    """Profile the immediate-mode cluster lookup path (cluster_lookup bench)."""
    from repro.dedup.fingerprint import synthetic_fingerprint

    cluster = _cluster(requests)
    rng = random.Random(7)
    fingerprints = [
        synthetic_fingerprint(rng.randrange(max(1, requests // 2)))
        for _ in range(requests)
    ]

    def run() -> int:
        duplicates = 0
        for start in range(0, len(fingerprints), batch_size):
            for result in cluster.lookup_batch(fingerprints[start : start + batch_size]):
                duplicates += result.is_duplicate
        return duplicates

    _profile_one(f"cluster lookup ({requests} fingerprints, batch={batch_size})", run, top)


class _CollectorMeter:
    """``gc.callbacks`` hook: seconds and passes per generation.

    ``allocated`` sums generation 0's counter as each pass starts (a pass
    resets it), so ``allocated + gc.get_count()[0]`` is a running total of
    net container allocations that collections do not disturb.
    """

    def __init__(self) -> None:
        self.seconds = [0.0, 0.0, 0.0]
        self.passes = [0, 0, 0]
        self.allocated = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.allocated += gc.get_count()[0]
            self._started = time.perf_counter()
        else:
            self.seconds[info["generation"]] += time.perf_counter() - self._started
            self.passes[info["generation"]] += 1

    def snapshot(self):
        return list(self.seconds), list(self.passes), self.allocated + gc.get_count()[0]


def _caller_batches(requests: int, batch_size: int, retained: list):
    """Batches from a caller that keeps every ``Fingerprint`` it ever made.

    Each key is new with probability one half, otherwise a uniform redraw
    of something already offered; new fingerprints are built between calls
    and appended to ``retained``, as a backup client's chunk list would.
    """
    from repro.dedup.fingerprint import synthetic_fingerprint

    rng = random.Random(7).random
    for _ in range(requests // batch_size):
        batch = []
        for _ in range(batch_size):
            if retained and rng() < 0.5:
                batch.append(retained[int(rng() * len(retained))])
            else:
                retained.append(synthetic_fingerprint(len(retained)))
                batch.append(retained[-1])
        yield batch


def _warm_cluster(requests: int, batch_size: int):
    """A cluster pre-populated by a quarter-length run of the same caller."""
    cluster, retained = _cluster(requests), []
    for batch in _caller_batches(requests // 4, batch_size, retained):
        cluster.lookup_batch(batch)
    return cluster, retained


def collector_report(requests: int, batch_size: int) -> None:
    """What the cyclic collector costs inside ``lookup_batch`` (cProfile off)."""
    print(f"=== collector on the batch path ({requests} fingerprints, batch={batch_size}) ===")
    cluster, retained = _warm_cluster(requests, batch_size)
    meter = _CollectorMeter()
    calls = []  # (wall, seconds per generation, passes per generation, allocations)
    gc.callbacks.append(meter)
    try:
        for batch in _caller_batches(requests, batch_size, retained):
            seconds, passes, allocated = meter.snapshot()
            started = time.perf_counter()
            results = cluster.lookup_batch(batch)
            wall = time.perf_counter() - started
            seconds_after, passes_after, allocated_after = meter.snapshot()  # results still held
            calls.append((
                wall,
                [after - before for after, before in zip(seconds_after, seconds)],
                [after - before for after, before in zip(passes_after, passes)],
                allocated_after - allocated,
            ))
            del results
    finally:
        gc.callbacks.remove(meter)
    keys = len(calls) * batch_size
    wall = sum(call[0] for call in calls)
    collecting = [sum(call[1][generation] for call in calls) for generation in range(3)]
    print(f"{len(calls)} calls, {wall:.2f} s in lookup_batch, {wall / keys * 1e6:.2f} us/fp, "
          f"{len(retained)} fingerprints retained by the caller")
    for generation in range(3):
        inside = sum(call[2][generation] for call in calls)
        print(f"  gen {generation}: {inside:5d} passes inside calls, {collecting[generation]:6.3f} s "
              f"(whole run: {meter.passes[generation]} passes, {meter.seconds[generation]:.3f} s)")
    print(f"  collector share of call time: {sum(collecting) / wall:.1%} "
          f"({sum(collecting) / keys * 1e6:.2f} us/fp)")
    print(f"  net container allocations per key, results held: "
          f"{sum(call[3] for call in calls) / keys:.2f}")
    ordered = sorted(call[0] for call in calls)
    print(f"  call p50 {ordered[len(ordered) // 2] * 1e3:.1f} ms; slowest five:")
    for call_wall, call_seconds, call_passes, _allocated in sorted(calls, reverse=True)[:5]:
        print(f"    {call_wall * 1e3:7.1f} ms, {sum(call_seconds) * 1e3:7.1f} ms collecting "
              f"(passes per generation {call_passes})")


def phase_split(requests: int, batch_size: int) -> None:
    """Where a call's own time goes with the collector off (same caller, fresh cluster)."""
    spent = {"call": 0.0, "bucket": 0.0, "serve": 0.0, "propagate": 0.0}

    def timed(phase, function):
        def wrapper(*args):
            started = time.perf_counter()
            try:
                return function(*args)
            finally:
                spent[phase] += time.perf_counter() - started
        return wrapper

    cluster, retained = _warm_cluster(requests, batch_size)
    cluster.lookup_batch = timed("call", cluster.lookup_batch)
    cluster._bucket_routed = timed("bucket", cluster._bucket_routed)
    cluster._propagate_new_groups = timed("propagate", cluster._propagate_new_groups)
    for node in cluster.nodes.values():
        node.serve_bucket_verdicts = timed("serve", node.serve_bucket_verdicts)
    gc.collect()
    gc.disable()
    try:
        for batch in _caller_batches(requests, batch_size, retained):
            cluster.lookup_batch(batch)
    finally:
        gc.enable()
    keys = requests // batch_size * batch_size
    spent["merge"] = spent["call"] - spent["bucket"] - spent["serve"] - spent["propagate"]
    print("  collector off, us/fp: " + ", ".join(
        f"{phase} {seconds / keys * 1e6:.2f}" for phase, seconds in spent.items()
    ) + " (merge = call - the other three)")


def profile_sweep(top: int) -> None:
    """Profile one small failover sweep (the per-grid-point cost)."""
    from repro.scenarios import SweepGrid, run_sweep, spec_for

    spec = spec_for("failover", scale=0.0005)
    grid = SweepGrid(axes={"replication_factor": [1, 2]})

    _profile_one("sweep: failover x {replication_factor: [1, 2]}",
                 lambda: run_sweep(spec, grid), top)


def persist_report(entries: int, batch_size: int = 128) -> None:
    """Log, checkpoint, disk and recovery cost of one persistence-backed node."""
    from repro.core.config import HashNodeConfig
    from repro.core.digest_batch import DigestBatch
    from repro.core.hash_node import HybridHashNode
    from repro.core.persistence import NodePersistence

    # bench/spec.py node_config(svc_unique) and CHUNK_SIZE.
    config = HashNodeConfig.from_dict(
        {"bloom_expected_items": 2_000_000, "ram_cache_entries": 1_000_000})
    blobs = [
        b"".join(hashlib.sha1(b"%d" % identity).digest()
                 for identity in range(start, min(start + batch_size, entries)))
        for start in range(0, entries, batch_size)
    ]
    print(f"=== persist: {entries} new fingerprints, {batch_size}-key batches ===")
    with tempfile.TemporaryDirectory(prefix="profile-persist-") as directory:
        log = NodePersistence(directory, fsync=False)
        node = HybridHashNode("node0", config)
        log_s = 0.0
        next_snapshot = 100_000
        for blob in blobs:
            _tiers, _times, new_pairs = node.serve_bucket_verdicts(DigestBatch.from_blob(blob, 8192))
            start = time.perf_counter()
            log.log_insert_many(new_pairs)
            log_s += time.perf_counter() - start
            if len(node.store) >= next_snapshot:
                start = time.perf_counter()
                log.take_snapshot(node.bloom, entries=len(node.store), store=node.store)
                print(f"take_snapshot at {len(node.store):>8,} entries: "
                      f"{(time.perf_counter() - start) * 1e3:7.1f} ms")
                next_snapshot += 100_000
        print(f"log_insert_many: {log_s / entries * 1e6:.3f} us per new fingerprint")
        log.close()
        total = 0
        for name in sorted(os.listdir(directory)):
            size = os.path.getsize(os.path.join(directory, name))
            total += size
            print(f"  {name:<16} {size:>12,} B  {size / entries:7.2f} B/fp")
        print(f"  {'total':<16} {total:>12,} B  {total / entries:7.2f} B/fp")

        start = time.perf_counter()
        reopened = NodePersistence(directory, fsync=False)
        opened = time.perf_counter()
        fresh = HybridHashNode("node0", config)
        built = time.perf_counter()
        report = reopened.recover_into(fresh)
        done = time.perf_counter()
        reopened.close()
        open_ms, recover_ms = (opened - start) * 1e3, (done - built) * 1e3
        print(f"open {open_ms:.1f} ms + recover_into {recover_ms:.1f} ms = "
              f"{open_ms + recover_ms:.1f} ms  (replayed {report.replayed} of "
              f"{report.records} records, bloom image loaded: {report.snapshot_loaded})")
        assert dict(fresh.store.items()) == dict(node.store.items()), "recovered store differs"
        assert fresh.bloom.snapshot_payload() == node.bloom.snapshot_payload(), \
            "recovered bloom bits differ"
        assert fresh.bloom.count == node.bloom.count, "recovered bloom count differs"
        print("recovered node == live node (store entries, bloom bits and count)")
    store_report(config, entries)


_SERVE_STAGES = (
    "frame decode", "DigestBatch.from_blob", "fused kernel",
    "modelled-time recording", "node serve, rest", "log_insert_many", "mask + encode",
)


def serve_report(requests: int, batch_size: int = 128) -> None:
    """Stage budget of the worker's batch path on one node, per live mix."""
    from repro.core.config import HashNodeConfig
    from repro.core.digest_batch import DigestBatch
    from repro.core.hash_node import HybridHashNode
    from repro.core.persistence import NodePersistence
    from repro.serving.wire import (
        decode_payload, encode_batch_frame, encode_verdict_frame, verdict_mask,
    )
    from repro.simulation.stats import LatencyRecorder

    # bench/spec.py: node_config() and CHUNK_SIZE; one of svc_dup_hot's two
    # shards holds half of its 100k pre-populated identities.
    config = HashNodeConfig.from_dict(
        {"bloom_expected_items": 2_000_000, "ram_cache_entries": 1_000_000})
    now = time.perf_counter_ns
    for mix, prepopulate, dup_fraction in (("svc_dup_hot", 50_000, 0.95), ("svc_unique", 0, 0.05)):
        rng = random.Random(7).random
        known = prepopulate
        payloads = []
        for _ in range(max(1, requests // batch_size)):
            identities = []
            for _ in range(batch_size):
                if known and rng() < dup_fraction:
                    identities.append(int(rng() * known))
                else:
                    identities.append(known)
                    known += 1
            blob = b"".join(hashlib.sha1(b"%d" % identity).digest() for identity in identities)
            payloads.append(encode_batch_frame(blob, 8192)[4:])
        spent = dict.fromkeys(_SERVE_STAGES, 0)

        def timed(stage, function):
            def wrapper(*args):
                started = now()
                try:
                    return function(*args)
                finally:
                    spent[stage] += now() - started
            return wrapper

        with tempfile.TemporaryDirectory(prefix="profile-serve-") as directory:
            node = HybridHashNode("node0", config,
                                  persistence=NodePersistence(directory, fsync=False))
            for start in range(0, prepopulate, 2048):
                node.serve_bucket_verdicts(DigestBatch.from_blob(b"".join(
                    hashlib.sha1(b"%d" % identity).digest()
                    for identity in range(start, min(start + 2048, prepopulate))), 8192))
            # The node resolves its kernel on the first serve; an empty batch
            # is enough, and nothing replaces cache, bloom or store below.
            node.serve_bucket_verdicts(DigestBatch.from_blob(b"", 8192))
            node._kernel = timed("fused kernel", node._kernel)
            node.lookup_latency.record_many = timed(
                "modelled-time recording", node.lookup_latency.record_many)
            node.persistence.log_insert_many = timed(
                "log_insert_many", node.persistence.log_insert_many)
            modelled = []
            counters_before = node.counters.as_dict()
            began = now()
            for payload in payloads:
                at_start = now()
                message = decode_payload(payload)
                decoded = now()
                batch = DigestBatch.from_blob(message["d"], message["s"])
                built = now()
                tiers, service_times, new_pairs = node.serve_bucket_verdicts(batch)
                served = now()
                encode_verdict_frame(len(batch), len(new_pairs), verdict_mask(tiers))
                encoded = now()
                spent["frame decode"] += decoded - at_start
                spent["DigestBatch.from_blob"] += built - decoded
                spent["node serve, rest"] += served - built
                spent["mask + encode"] += encoded - served
                modelled.append(service_times)
            total = now() - began
            node.persistence.close()
        spent["node serve, rest"] -= sum(
            spent[stage] for stage in
            ("fused kernel", "modelled-time recording", "log_insert_many"))
        keys = len(payloads) * batch_size
        counters = node.counters.as_dict()
        moved = {name: counters.get(name, 0) - counters_before.get(name, 0)
                 for name in ("ram_hits", "ssd_hits", "new_entries")}
        print(f"=== serve: {mix} mix, {len(payloads)} batches x {batch_size} "
              f"({', '.join(f'{name} {value / keys:.1%}' for name, value in moved.items())}) ===")
        for stage in _SERVE_STAGES:
            print(f"  {stage:<26} {spent[stage] / keys / 1e3:7.3f} us/fp  {spent[stage] / total:6.1%}")
        rest = total - sum(spent.values())
        print(f"  {'unattributed':<26} {rest / keys / 1e3:7.3f} us/fp  {rest / total:6.1%}")
        print(f"  {'total':<26} {total / keys / 1e3:7.3f} us/fp")
        recorder = LatencyRecorder("comparison")
        began = now()
        for service_times in modelled:
            recorder.record_many(service_times)
        print(f"  (recording the same modelled times where lookup_batch pays for it: "
              f"{(now() - began) / keys / 1e3:.3f} us/fp, not on this path)")


#: bench/spec.py's sim_figure5 legs (batch size, trace scale) on bench/sim.py's 4 nodes.
_SIM_LEGS = ((1, 0.00005), (128, 0.0005), (2048, 0.0005))
_SIM_REPEATS = 12

#: CPU seconds between samples of the ``sim`` target's layer split.
_SAMPLE_INTERVAL = 0.0005

#: Inside ``Simulator.run``, a sample goes to the layer of the innermost
#: frame whose module is listed here (by prefix, longest first).
_SIM_LAYERS = (
    ("repro.network.link", "links"),
    ("repro.network.switch", "links"),
    ("repro.network", "RPC + front end"),
    ("repro.frontend.upload_plan", "reply assembly"),
    ("repro.frontend", "RPC + front end"),
    ("repro.core.protocol", "reply assembly"),
    ("repro.core", "node serve"),
    ("repro.storage", "node serve"),
    ("repro.simulation.resources", "node serve"),
    ("repro.simulation", "engine"),  # calendar, events, and processes where they exist
)
#: Generic helpers: a sample in one of these is charged to its caller.
_SIM_HELPERS = ("repro.dedup.fingerprint", "repro.simulation.stats")
_SIM_ROWS = ("trace generation", "links", "RPC + front end", "node serve", "kernel",
             "reply assembly", "engine", "collector", "rest of run", "set-up and result")


def _layer_of(frame) -> str:
    """The ``sim`` split's row for a sample taken inside ``Simulator.run``."""
    while frame is not None:
        if frame.f_code.co_name == "fused_kernel":  # exec-generated: no module
            return "kernel"
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro.") and not module.startswith(_SIM_HELPERS):
            for prefix, layer in _SIM_LAYERS:
                if module.startswith(prefix):
                    return layer
            return "rest of run"
        frame = frame.f_back
    return "rest of run"


def sim_report() -> None:
    """Where a ``sim_figure5`` leg's wall-clock goes: by stage, then by layer."""
    import signal

    from repro.scenarios import run_scenario
    from repro.simulation.engine import Simulator
    from repro.workloads.mixer import WorkloadMix
    from repro.workloads.trace_cache import clear_memo

    spent = {"trace generation": 0.0, "Simulator.run": 0.0}
    samples = dict.fromkeys(_SIM_ROWS, 0)
    state = {"stage": "set-up and result", "collecting": False}

    def timed(stage, function):
        def wrapper(*args, **kwargs):
            state["stage"] = stage
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent[stage] += time.perf_counter() - started
                state["stage"] = "set-up and result"
        return wrapper

    def on_sample(_signum, frame) -> None:
        # A sample due while the collector runs is delivered at the first
        # bytecode after it -- inside on_collector's "stop" call, before the
        # flag drops -- so it is still charged to the collector.
        if state["collecting"]:
            samples["collector"] += 1
        elif state["stage"] == "Simulator.run":
            samples[_layer_of(frame)] += 1
        else:
            samples[state["stage"]] += 1

    def on_collector(phase, _info) -> None:
        state["collecting"] = phase == "start"

    streams, run = WorkloadMix.streams, Simulator.run
    WorkloadMix.streams = timed("trace generation", streams)
    Simulator.run = timed("Simulator.run", run)
    previous = signal.signal(signal.SIGPROF, on_sample)
    gc.callbacks.append(on_collector)
    splits = []
    try:
        print(f"=== sim: figure5 legs on 4 nodes, seed 1, mean of {_SIM_REPEATS} cold runs ===")
        print(f"  {'leg':<8} {'trace generation':>18} {'Simulator.run':>18} {'rest':>18} {'leg':>9}")
        for batch, scale in _SIM_LEGS:
            spent.update(dict.fromkeys(spent, 0.0))
            samples.update(dict.fromkeys(samples, 0))
            leg_s = 0.0
            cpu = time.process_time()
            signal.setitimer(signal.ITIMER_PROF, _SAMPLE_INTERVAL, _SAMPLE_INTERVAL)
            for _ in range(_SIM_REPEATS):
                clear_memo()  # as bench/sim.py: every leg regenerates its trace
                started = time.perf_counter()
                run_scenario("figure5", node_counts=[4], batch_sizes=[batch], scale=scale, seed=1)
                leg_s += time.perf_counter() - started
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            rows = [spent["trace generation"], spent["Simulator.run"]]
            rows.append(leg_s - sum(rows))
            print(f"  b{batch:<7}" + "".join(
                f" {value / _SIM_REPEATS:9.4f} s {value / leg_s:5.1%}" for value in rows
            ) + f" {leg_s / _SIM_REPEATS:7.4f} s")
            splits.append((batch, leg_s / _SIM_REPEATS, dict(samples), time.process_time() - cpu))
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, previous)
        gc.callbacks.remove(on_collector)
        WorkloadMix.streams, Simulator.run = streams, run
    # The kernel delivers ITIMER_PROF at its CPU-accounting tick, so the
    # interval actually achieved is printed under the table.
    print(f"=== sim: the same runs by layer, ITIMER_PROF samples every "
          f"{_SAMPLE_INTERVAL * 1e3:g} ms of CPU asked; ms per leg = share x mean leg ===")
    print(f"  {'layer':<18}" + "".join(f" {f'b{batch}':>16}" for batch, *_rest in splits))
    for row in _SIM_ROWS:
        print(f"  {row:<18}" + "".join(
            f" {counts[row] / max(1, sum(counts.values())) * leg * 1e3:8.1f} ms "
            f"{counts[row] / max(1, sum(counts.values())):5.1%}"
            for _batch, leg, counts, _cpu in splits))
    print(f"  {'samples':<18}" + "".join(
        f" {sum(counts.values()):16d}" for _batch, _leg, counts, _cpu in splits))
    print(f"  {'CPU ms per sample':<18}" + "".join(
        f" {cpu / max(1, sum(counts.values())) * 1e3:16.2f}" for _batch, _leg, counts, cpu in splits))


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def store_report(config, entries: int) -> None:
    """One node's ``SSDHashStore`` alone: allocate, fill, probe, resident size."""
    from repro.storage.hashstore import SSDHashStore

    pairs = [(hashlib.sha1(b"store-%d" % identity).digest(), 8192) for identity in range(entries)]
    probes = [key for key, _value in pairs]
    random.Random(0).shuffle(probes)
    gc.collect()
    rss_before = _rss_mb()
    start = time.perf_counter()
    store = SSDHashStore(
        num_buckets=config.ssd_buckets,
        page_size=config.ssd_page_size,
        entry_size=config.ssd_entry_size,
        write_buffer_pages=config.ssd_write_buffer_pages,
    )
    allocated = time.perf_counter()
    store.put_many_verdicts(pairs)
    filled = time.perf_counter()
    rss_after = _rss_mb()
    contains = store.__contains__
    start_probe = time.perf_counter()
    hits = sum(map(contains, probes))
    probe_s = time.perf_counter() - start_probe
    assert hits == len(store) == entries
    print(f"=== store: {entries} keys, {config.ssd_buckets} buckets ===")
    print(f"allocate {(allocated - start) * 1e3:.1f} ms, fill {(filled - allocated) * 1e3:.1f} ms, "
          f"membership probe {probe_s / entries * 1e6:.3f} us/key, "
          f"resident +{rss_after - rss_before:.1f} MB")


def _profile_one(label: str, fn, top: int) -> None:
    print(f"=== {label} ===")
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("target", nargs="?", default="all",
                        choices=("all", "cluster", "sweep", "persist", "serve", "sim"))
    parser.add_argument("--top", type=int, default=20,
                        help="how many functions to print (default 20)")
    parser.add_argument("--requests", type=int, default=16_000,
                        help="cluster / serve run size in fingerprints (default 16000)")
    parser.add_argument("--batch", type=int, default=128,
                        help="fingerprints per lookup_batch call (default 128)")
    parser.add_argument("--gc", action="store_true",
                        help="cluster target: also report the cyclic collector's share")
    parser.add_argument("--entries", type=int, default=240_000,
                        help="persist target: new fingerprints on the node (default 240000)")
    args = parser.parse_args(argv)
    if args.target == "persist":
        persist_report(args.entries)
        return 0
    if args.target == "serve":
        serve_report(args.requests)
        return 0
    if args.target == "sim":
        sim_report()
        return 0
    if args.target in ("all", "cluster"):
        profile_cluster(args.top, args.requests, args.batch)
        if args.gc:
            collector_report(args.requests, args.batch)
            phase_split(args.requests, args.batch)
    if args.target in ("all", "sweep"):
        profile_sweep(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
