#!/usr/bin/env python
"""cProfile driver for the two throughput-critical paths, and per-layer readouts.

Prints the top cumulative-time functions for

* a **cluster-lookup run**: the immediate-mode routed-batch path
  (16k fingerprints through a 4-node replicated cluster in 128-fingerprint
  batches; ``bench/``'s ``lib_cluster_rf2`` measures it end to end), and
* a **sweep run**: a small ``run_sweep`` grid over the failover preset,
  the per-point cost the parallel sweep executor amortises.

Usage::

    PYTHONPATH=src python tools/profile_hotpath.py            # both targets
    PYTHONPATH=src python tools/profile_hotpath.py cluster    # one target
    PYTHONPATH=src python tools/profile_hotpath.py sweep --top 30
    PYTHONPATH=src python tools/profile_hotpath.py cluster --gc --requests 800000 --batch 2048
    PYTHONPATH=src python tools/profile_hotpath.py persist --entries 240000
    PYTHONPATH=src python tools/profile_hotpath.py serve --requests 512000 --runs 5
    PYTHONPATH=src python tools/profile_hotpath.py gateway --requests 1024000 --runs 5
    PYTHONPATH=src python tools/profile_hotpath.py sim
    PYTHONPATH=src python tools/profile_hotpath.py startup --runs 10

``cluster --gc`` adds the cyclic collector's account of the same path,
measured with cProfile off on a caller shaped like ``bench/``'s
``lib_cluster_rf2`` (pre-populated cluster, half of every batch new, every
``Fingerprint`` ever offered retained by the caller): collector seconds and
passes per generation inside ``lookup_batch``, their share of call time, the
slowest calls with their collector time, net container allocations per key,
and the collector-off split of a call into bucket / serve / propagate /
merge for three routing shapes: a clean range cluster, the same with one
node down, and a ring of 64 tokens per node.  A full pass walks whatever
the *caller* keeps alive, so its cost scales with ``--requests``; the pass
*count* scales with what the batch path allocates per key.

``persist`` is the write side of a first full backup on one node at
``bench/``'s ``node_config`` (no cProfile): 128-key batches served and then
logged, us per new fingerprint in ``log_insert_many``, a checkpoint at
every 100k entries split into the serving thread's stall
(``begin_snapshot``: the copy of the bits) and the background write it
then waits out (``finish_snapshot``: write + fsync + rename; a commit with
``take_snapshot`` only prints that, inline), disk bytes per fingerprint by file,
and open + ``recover_into`` ms into a fresh node, asserting the recovered
node equals the live one.  It then reads the node's ``SSDHashStore`` on its
own at the same geometry and key count: allocate ms, fill ms
(``put_many_verdicts``), membership probe us/key and resident MB per store.
It calls public names only, so it runs on any commit since PR 7
(``PYTHONPATH=<that checkout>/src``).

``serve`` is the serving worker's batch path, in-process and with cProfile
off: :class:`~repro.serving.worker.WorkerCore` over one persistence-backed
node at ``bench/``'s ``node_config``, fed 128-digest batch frames one per
``on_bytes`` call, per live mix (``svc_dup_hot``: 300k keys
pre-populated, the size a bench shard reaches in a 10 s run, 95% of every
batch known; ``svc_unique``: 95% new), each mix ``--runs`` times (default
5) on a fresh node fed the same frames.  Per stage it prints the median us
per fingerprint over the runs and its quartiles: framing, frame decode,
``DigestBatch.from_blob``, the fused kernel, the rest of the node's serve,
``log_insert_many`` and mask + encode, with the unattributed remainder
(the payload copy, the histogram, the loop; in each run the rows sum to
the total), then the share of batches the kernel served with each
RAM-probe spelling.  Each stage is the name the core calls, wrapped, so
the rows time the worker's own code.  No socket, no gateway, no
checkpoints (``snapshot_every=0``).  It needs ``WorkerCore`` and the
node's private ``_kernel`` slot: older checkouts need their own copy of
this file.

``gateway`` is the gateway's row next to ``serve``'s worker row:
:class:`~repro.serving.gateway_core.GatewayCore` driven in-process (no
socket, no event loop) with ``svc_dup_hot``-shaped traffic -- 256-digest
JSON batches over 2 workers, whose packed replies mark 95% of digests
duplicate -- and us per batch in client decode (``json.loads``), route +
split (hex decode, ``owner_indexes``, the packed split, admission), merge
(FIFO match, re-interleave, counters) and reply encode (``json.dumps``),
with framing and the rest as the remainder, rows summing to the total
in each run.  Like ``serve``, it runs the same traffic ``--runs`` times
(default 5), each through a fresh core, and prints each row's median and
quartiles.  It needs a checkout that has ``serving/gateway_core.py``.

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
assembly (``core.protocol``, and ``frontend.upload_plan`` on a commit
that still has it), the engine (the
rest of ``simulation``: calendar, events and, on a commit that still has
``simulation/process.py``, generator processes) -- and a sample taken while the cyclic collector runs to the
collector; ``dedup.fingerprint`` (the column builder) and
``simulation.stats`` are charged to their caller.  It wraps public names
and classifies by module only, so ``PYTHONPATH=<other checkout>/src``
splits another commit's legs the same way.

``startup`` is what an entry point pays before it does anything, each in
fresh interpreters: a bare ``python -c pass``, ``bench/``'s ``sim_figure5``
set-up child (resolve the ``figure5`` preset), a tiny cold
``run_scenario("figure5")`` (batch 1, 4 nodes), ``python -m repro.cli
presets`` and ``import repro.serving.worker``.  Per entry point: the median
wall time of ``--runs`` interpreters (spawn to exit) with its quartiles and
its excess over the bare interpreter's, the ``repro`` and stdlib modules
in ``sys.modules`` at exit, and the ten largest self times of ``python -X
importtime`` -- the modules the milliseconds went to.  It only starts
subprocesses, so ``PYTHONPATH=<other checkout>/src`` reads another commit.

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


def _cluster(requests: int, virtual_nodes: int = 0):
    from repro.core.cluster import SHHCCluster
    from repro.core.config import ClusterConfig, HashNodeConfig

    return SHHCCluster(ClusterConfig(
        num_nodes=4,
        replication_factor=2,
        virtual_nodes=virtual_nodes,
        node=HashNodeConfig(
            ram_cache_entries=4_096,
            bloom_expected_items=max(20_000, requests),
            ssd_buckets=1 << 12,
        ),
    ))


def profile_cluster(top: int, requests: int, batch_size: int) -> None:
    """Profile the immediate-mode cluster lookup path (16k keys, 128 per batch by default)."""
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


def _warm_cluster(requests: int, batch_size: int, virtual_nodes: int = 0):
    """A cluster pre-populated by a quarter-length run of the same caller."""
    cluster, retained = _cluster(requests, virtual_nodes), []
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


#: ``phase_split`` rows: label, ring tokens per node (0 = range partitioner),
#: node marked down after warm-up (its keys fail over to their successors).
PHASE_SPLIT_SHAPES = (
    ("range", 0, None),
    ("range, hashnode-1 down", 0, "hashnode-1"),
    ("ring, 64 tokens", 64, None),
)


def phase_split(requests: int, batch_size: int) -> None:
    """Where a call's own time goes with the collector off (same caller, fresh clusters).

    One row per routing shape in :data:`PHASE_SPLIT_SHAPES`, so the bucket
    and propagate phases of a clean range cluster, a degraded one and a
    consistent-hash ring read side by side.
    """
    def timed(spent, phase, function):
        def wrapper(*args):
            started = time.perf_counter()
            try:
                return function(*args)
            finally:
                spent[phase] += time.perf_counter() - started
        return wrapper

    for label, virtual_nodes, down in PHASE_SPLIT_SHAPES:
        spent = {"call": 0.0, "bucket": 0.0, "serve": 0.0, "propagate": 0.0}
        cluster, retained = _warm_cluster(requests, batch_size, virtual_nodes)
        if down is not None:
            cluster.mark_down(down)
        cluster.lookup_batch = timed(spent, "call", cluster.lookup_batch)
        cluster._bucket_routed = timed(spent, "bucket", cluster._bucket_routed)
        cluster._propagate_new_groups = timed(spent, "propagate", cluster._propagate_new_groups)
        for node in cluster.nodes.values():
            node.serve_bucket_verdicts = timed(spent, "serve", node.serve_bucket_verdicts)
        gc.collect()
        gc.disable()
        try:
            for batch in _caller_batches(requests, batch_size, retained):
                cluster.lookup_batch(batch)
        finally:
            gc.enable()
        keys = requests // batch_size * batch_size
        spent["merge"] = spent["call"] - spent["bucket"] - spent["serve"] - spent["propagate"]
        print(f"  collector off, {label}, us/fp: " + ", ".join(
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
    from repro.core.config import NODE_BLOOM_ITEMS, HashNodeConfig
    from repro.core.digest_batch import DigestBatch
    from repro.core.hash_node import HybridHashNode
    from repro.core.persistence import NodePersistence

    # bench/spec.py node_config(svc_unique) and CHUNK_SIZE.
    config = HashNodeConfig.from_dict(
        {"bloom_expected_items": NODE_BLOOM_ITEMS, "ram_cache_entries": 1_000_000})
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
        # A commit from before the background write has take_snapshot only.
        begin = getattr(log, "begin_snapshot", None)
        for blob in blobs:
            _tiers, _times, new_pairs = node.serve_bucket_verdicts(DigestBatch.from_blob(blob, 8192))
            start = time.perf_counter()
            log.log_insert_many(new_pairs)
            log_s += time.perf_counter() - start
            if len(node.store) >= next_snapshot:
                start = time.perf_counter()
                if begin is None:
                    log.take_snapshot(node.bloom, entries=len(node.store), store=node.store)
                    print(f"checkpoint at {len(node.store):>8,} entries: take_snapshot "
                          f"{(time.perf_counter() - start) * 1e3:7.1f} ms (inline)")
                else:
                    begin(node.bloom, entries=len(node.store))
                    begun = time.perf_counter()
                    log.finish_snapshot()
                    print(f"checkpoint at {len(node.store):>8,} entries: "
                          f"begin_snapshot {(begun - start) * 1e3:6.2f} ms (serving thread)"
                          f"  finish_snapshot {(time.perf_counter() - begun) * 1e3:7.1f} ms"
                          " (background write)")
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
    "framing", "frame decode", "DigestBatch.from_blob", "fused kernel",
    "node serve, rest", "log_insert_many", "mask + encode",
)


def _spread(values) -> tuple:
    """``(median, lower quartile, upper quartile)`` of one stage's per-run values."""
    import statistics

    if len(values) < 2:
        return values[0], values[0], values[0]
    lower, _, upper = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), lower, upper


def _print_rows(rows: dict, total_label: str, unit: str, digits: int) -> None:
    """One line per stage: median, quartiles and the median's share of the total's."""
    total = _spread(rows[total_label])[0]
    for label, values in rows.items():
        median, lower, upper = _spread(values)
        share = "" if label == total_label else f"  {median / total:6.1%}"
        print(f"  {label:<26} {median:8.{digits}f} {unit}  "
              f"[{lower:.{digits}f}, {upper:.{digits}f}]{share}")


def serve_report(requests: int, runs: int, batch_size: int = 128) -> None:
    """Stage budget of the worker's batch path on one node, per live mix.

    The frames go through :meth:`WorkerCore.on_bytes`, one per call as a
    closed-loop gateway sends them; a stage is timed by wrapping the name
    the core calls, so the rows measure the code the worker runs.  Each mix
    runs ``runs`` times, each on a fresh node fed the same frames.
    """
    from types import SimpleNamespace

    from repro.core.config import NODE_BLOOM_ITEMS, HashNodeConfig
    from repro.core.digest_batch import DigestBatch
    from repro.core.hash_node import HybridHashNode
    from repro.core.persistence import NodePersistence
    from repro.serving import worker
    from repro.serving.wire import JsonCodec, encode_batch_frame

    # bench/spec.py: node_config() and CHUNK_SIZE.  One of svc_dup_hot's two
    # shards starts with half of its 100k pre-populated identities and grows
    # to about 300k over a 10 s run; the RAM probe's cost depends on that
    # size, so the mix starts at the size the shard reaches.
    config = HashNodeConfig.from_dict(
        {"bloom_expected_items": NODE_BLOOM_ITEMS, "ram_cache_entries": 1_000_000})
    now = time.perf_counter_ns
    for mix, prepopulate, dup_fraction in (("svc_dup_hot", 300_000, 0.95), ("svc_unique", 0, 0.05)):
        rng = random.Random(7).random
        known = prepopulate
        frames = []
        for _ in range(max(1, requests // batch_size)):
            identities = []
            for _ in range(batch_size):
                if known and rng() < dup_fraction:
                    identities.append(int(rng() * known))
                else:
                    identities.append(known)
                    known += 1
            blob = b"".join(hashlib.sha1(b"%d" % identity).digest() for identity in identities)
            frames.append(encode_batch_frame(blob, 8192))
        keys = len(frames) * batch_size
        rows = {stage: [] for stage in (*_SERVE_STAGES, "unattributed", "total")}
        # Batches the kernel served with each RAM-probe spelling, over all
        # runs: its last argument is True when the node chose the optimistic
        # one (a commit without the choice passes the new-pairs append there).
        spellings = {"checked": 0, "optimistic": 0}

        def count_spelling(kernel):
            def wrapper(*args):
                spellings["optimistic" if args[-1] is True else "checked"] += 1
                return kernel(*args)
            return wrapper

        for _ in range(runs):
            spent = dict.fromkeys(_SERVE_STAGES, 0)

            def timed(stage, function):
                def wrapper(*args):
                    started = now()
                    try:
                        return function(*args)
                    finally:
                        spent[stage] += now() - started
                return wrapper

            wrapped = {
                "frame_payloads": timed("framing", worker.frame_payloads),
                "decode_payload": timed("frame decode", worker.decode_payload),
                "DigestBatch": SimpleNamespace(
                    from_blob=timed("DigestBatch.from_blob", DigestBatch.from_blob)),
                "verdict_mask": timed("mask + encode", worker.verdict_mask),
                "encode_verdict_frame": timed("mask + encode", worker.encode_verdict_frame),
            }
            originals = {name: getattr(worker, name) for name in wrapped}
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
                node._kernel = timed("fused kernel", count_spelling(node._kernel))
                node.persistence.log_insert_many = timed(
                    "log_insert_many", node.persistence.log_insert_many)
                node.serve_bucket_verdicts = timed("node serve, rest", node.serve_bucket_verdicts)
                core = worker.WorkerCore(node, JsonCodec)
                before = node.snapshot()
                vars(worker).update(wrapped)
                try:
                    began = now()
                    for frame in frames:
                        core.on_bytes(frame)
                    total = now() - began
                finally:
                    vars(worker).update(originals)
                node.persistence.close()
            spent["node serve, rest"] -= spent["fused kernel"] + spent["log_insert_many"]
            assert core.registry.histogram("serve_batch").count == len(frames), "every batch served"
            spent["unattributed"] = total - sum(spent.values())
            spent["total"] = total
            for stage, value in spent.items():
                rows[stage].append(value / keys / 1e3)
        after = node.snapshot()
        moved = {name: getattr(after, name) - getattr(before, name)
                 for name in ("ram_hits", "ssd_hits", "new_entries")}
        print(f"=== serve: {mix} mix, {len(frames)} batches x {batch_size}, "
              f"{runs} runs on fresh nodes: median us/fp [quartiles] "
              f"({', '.join(f'{name} {value / keys:.1%}' for name, value in moved.items())}) ===")
        _print_rows(rows, "total", "us/fp", 3)
        served = runs * len(frames)
        print(f"  RAM probe spelling: {', '.join(f'{name} {count / served:.1%}' for name, count in spellings.items())} of batches")


_GATEWAY_STAGES = ("client decode", "route + split", "merge", "reply encode")


def gateway_report(batches: int, runs: int, batch_size: int = 256, workers: int = 2) -> None:
    """Stage budget of the gateway's batch path: the socket-free core, in-process.

    The same traffic runs ``runs`` times, each through a fresh core.
    """
    from repro.serving.gateway_core import GatewayCore
    from repro.serving.wire import JsonCodec, encode_frame, encode_verdict_frame

    now = time.perf_counter_ns
    rng = random.Random(7)
    frames = [encode_frame({"t": "batch", "id": number, "s": 8192, "d": "".join(
        hashlib.sha1(b"%d" % rng.getrandbits(40)).hexdigest() for _ in range(batch_size))})
        for number in range(batches)]
    # The workers' packed replies, one per (batch, worker), drawn once: 95%
    # of every batch's digests duplicate.
    masks = {}
    rows = {stage: [] for stage in (*_GATEWAY_STAGES, "framing and the rest", "total")}
    for _ in range(runs):
        spent = dict.fromkeys(_GATEWAY_STAGES, 0)

        def timed(stage, function):
            def wrapper(*args):
                started = now()
                try:
                    return function(*args)
                finally:
                    spent[stage] += now() - started
            return wrapper

        class Codec:  # JSON, with the client-side decode and the reply encode timed
            name = JsonCodec.name
            decode = staticmethod(timed("client decode", JsonCodec.decode))
            encode = staticmethod(timed("reply encode", JsonCodec.encode))

        # bench/spec.py's SERVE_CONFIG and svc_dup_hot: two workers, 256-digest
        # batches, 95% of every batch a duplicate.
        core = GatewayCore([f"node{i}" for i in range(workers)], max_queue=64,
                           max_inflight=512, codec=Codec)
        for link in core.workers:
            link.ready.set()
        core._admit = timed("route + split", core._admit)
        core._on_part = timed("merge", core._on_part)
        client = object()
        total = 0
        for number, frame in enumerate(frames):
            started = now()
            out = core.on_client_bytes(client, frame)
            total += now() - started
            for index, sub_batch in out:
                if (number, index) not in masks:
                    count = (len(sub_batch) - 9) // 20  # length prefix, tag, chunk size
                    duplicates = [rng.random() < 0.95 for _ in range(count)]
                    mask = sum(1 << bit for bit, duplicate in enumerate(duplicates) if duplicate)
                    masks[number, index] = encode_verdict_frame(
                        count, duplicates.count(False), mask)
                started = now()
                replies = core.on_worker_bytes(index, masks[number, index])
                total += now() - started
            assert replies and core.inflight == 0, "every batch is answered"
        # The merge wraps the reply encode it ends with.
        spent["merge"] -= spent["reply encode"]
        spent["framing and the rest"] = total - sum(spent.values())
        spent["total"] = total
        for stage, value in spent.items():
            rows[stage].append(value / batches / 1e3)
    print(f"=== gateway: {batches} batches x {batch_size} digests over {workers} workers, "
          f"95% duplicates, in-process (no sockets), {runs} runs on fresh cores: "
          f"median us/batch [quartiles] ===")
    _print_rows(rows, "total", "us/batch", 2)
    print(f"  ({_spread(rows['total'])[0] / batch_size:.3f} us/fp)")


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
    ("repro.frontend.upload_plan", "reply assembly"),  # on commits that still have it
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


#: ``startup``'s entry points, each a ``python -c`` statement; the listing
#: runs ``repro.cli`` through ``runpy`` as ``python -m repro.cli presets`` does.
#: The bare interpreter comes first: what every other row pays before
#: ``repro`` is imported at all.
_BARE = "bare interpreter"
_STARTUP = (
    (_BARE, "pass"),
    ("resolve figure5", "from repro.scenarios import spec_for; "
                        "spec_for('figure5', node_counts=[4], batch_sizes=[1], scale=0.001, seed=1)"),
    ("run figure5", "from repro.scenarios import run_scenario; "
                    "run_scenario('figure5', node_counts=[4], batch_sizes=[1], scale=0.00005, seed=1)"),
    ("repro presets", "import runpy, sys; sys.argv = ['repro', 'presets']; "
                      "runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)"),
    ("import worker", "import repro.serving.worker"),
)
_MODULES_AT_EXIT = ("import atexit, sys; atexit.register(lambda: print("
                    "'modules:', *sys.modules, file=sys.stderr)); ")


def startup_report(runs: int, top: int = 10) -> None:
    """Wall time, modules loaded and the largest import self times per entry point.

    Each row's wall time is the median of ``runs`` interpreters with its
    quartiles, and what the median adds over the bare interpreter's: the
    share ``repro`` costs.  ``-X importtime`` logs the ``import`` statement
    only, not ``importlib.import_module`` (the lazy roots and presets load
    through it), so the module counts come from ``sys.modules`` at exit.
    """
    import subprocess

    def run(statement, *flags):
        started = time.perf_counter()
        done = subprocess.run([sys.executable, *flags, "-c", statement], check=True,
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        return time.perf_counter() - started, done.stderr.splitlines()

    print(f"=== startup: median ms [quartiles] of {runs} fresh interpreters, and its excess "
          "over the bare one's; modules and self times from one more under `-X importtime` ===")
    bare = None
    for label, statement in _STARTUP:
        wall, lower, upper = _spread([run(statement)[0] * 1e3 for _ in range(runs)])
        bare = wall if bare is None else bare
        self_us = {}  # module -> self us; a circular import is logged twice
        for line in run(_MODULES_AT_EXIT + statement, "-X", "importtime")[1]:
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                name = fields[2].strip()
                self_us[name] = self_us.get(name, 0) + int(fields[0])
            elif line.startswith("modules: "):
                packages = [name.split(".")[0] for name in line.split()[1:]]
        repro = packages.count("repro")
        stdlib = sum(package in sys.stdlib_module_names for package in packages)
        excess = "" if label == _BARE else f" +{wall - bare:6.1f}"
        print(f"{label:<16} {wall:7.1f} ms [{lower:.1f}, {upper:.1f}]{excess:>8}   "
              f"{repro:3d} repro + {stdlib:3d} stdlib modules, "
              f"imports {sum(self_us.values()) / 1e3:.1f} ms self")
        for name, us in sorted(self_us.items(), key=lambda item: -item[1])[:top]:
            print(f"    {us / 1e3:7.2f} ms  {name}")


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
                        choices=("all", "cluster", "sweep", "persist", "serve", "gateway",
                                 "sim", "startup"))
    parser.add_argument("--top", type=int, default=20,
                        help="how many functions to print (default 20)")
    parser.add_argument("--requests", type=int, default=16_000,
                        help="cluster / serve / gateway run size in fingerprints (default 16000)")
    parser.add_argument("--batch", type=int, default=128,
                        help="fingerprints per lookup_batch call (default 128)")
    parser.add_argument("--gc", action="store_true",
                        help="cluster target: also report the cyclic collector's share")
    parser.add_argument("--entries", type=int, default=240_000,
                        help="persist target: new fingerprints on the node (default 240000)")
    parser.add_argument("--runs", type=int, default=None,
                        help="startup: fresh interpreters per entry point (default 10); "
                             "serve, gateway: fresh nodes or cores per mix (default 5)")
    args = parser.parse_args(argv)
    if args.target == "persist":
        persist_report(args.entries)
        return 0
    if args.target == "serve":
        serve_report(args.requests, args.runs or 5)
        return 0
    if args.target == "gateway":
        gateway_report(max(1, args.requests // 256), args.runs or 5)
        return 0
    if args.target == "sim":
        sim_report()
        return 0
    if args.target == "startup":
        startup_report(args.runs or 10)
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
