"""Single-threaded replay of a ``svc_*`` stream through the layers' public
functions, one child span per call under a per-batch parent.

The live run says what the gateway and the workers cost as processes; this
replay says what each public stage costs on the same digests, so the rest --
``gateway.cpu_us_per_fp`` / ``worker.cpu_us_per_fp`` minus these stages -- is
what the serving code does between the calls.  Counts (tier mix, page reads)
come from a fixed number of batches on fresh nodes and repeat exactly.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Any, Dict, List, Tuple

from repro.core.config import HashNodeConfig
from repro.core.digest_batch import DigestBatch
from repro.core.hash_node import HybridHashNode
from repro.core.partition import RangePartitioner
from repro.core.persistence import NodePersistence
from repro.serving.wire import encode_frame, get_codec
from repro.storage.bloom import BloomFilter
from repro.storage.hashstore import SSDHashStore

from .spec import CHUNK_SIZE, OUT_DIR, REPLAY_BATCHES, SERVE_CONFIG, Workload, node_config
from .streams import Batch, DigestTable, IdentityStream, prepopulation_batches
from .trace import Tracer, now_ns

_COUNTERS = ("lookups", "ram_hits", "ssd_hits", "new_entries",
             "bloom_false_positives", "destages")


class _Replay:
    def __init__(self, workload: Workload, tracer: Tracer, directory: str) -> None:
        self.tracer = tracer
        self.codec = get_codec("json")
        self.config = HashNodeConfig.from_dict(node_config(workload))
        names = [f"node{index}" for index in range(SERVE_CONFIG["num_nodes"])]
        self.partitioner = RangePartitioner(names)
        self.nodes = {name: HybridHashNode(name, self.config) for name in names}
        self.logs = {
            name: NodePersistence(os.path.join(directory, name), fsync=False)
            for name in names
        }
        self.table = DigestTable()
        #: Per-stage (calls, ns) totals of the timed batches.
        self.stage_ns: Dict[str, int] = {}
        self.sub_batches: List[List[bytes]] = []
        self.fps = self.batches = self.new_fps = 0
        self.violations: List[str] = []

    def _timed(self, stage: str, trace_id: int, parent: int, start: int) -> int:
        end = now_ns()
        self.stage_ns[stage] = self.stage_ns.get(stage, 0) + end - start
        self.tracer.add(stage, trace_id, parent, start, end)
        return end

    def batch(self, identities: List[int], known_after: int, expected_new: int,
              timed: bool) -> None:
        """One batch through encode -> decode -> build -> route -> serve -> log."""
        self.table.extend_to(known_after)
        message = {"t": "batch", "id": self.batches + 1,
                   "d": self.table.blob(identities), "s": CHUNK_SIZE}
        trace_id = self.batches + 1
        begin = now_ns()
        parent = self.tracer.new_id() if timed else 0

        start = now_ns()
        frame = encode_frame(message, self.codec)
        if timed:
            start = self._timed("wire.encode", trace_id, parent, start)
        decoded = self.codec.decode(frame[4:])
        if timed:
            start = self._timed("wire.decode", trace_id, parent, start)
        whole = DigestBatch.from_blob(bytes.fromhex(decoded["d"]), decoded["s"])
        whole.hash_words()
        if timed:
            start = self._timed("digest_batch.build", trace_id, parent, start)
        owners_by_key = self.partitioner.owners_by_key
        groups: Dict[str, List[bytes]] = {}
        for digest in whole.digests:
            owner = owners_by_key(int.from_bytes(digest[:8], "big"), 1)[0]
            group = groups.get(owner)
            if group is None:
                groups[owner] = group = []
            group.append(digest)
        if timed:
            self._timed("partition.route", trace_id, parent, start)

        new_total = 0
        for owner, digests in groups.items():
            sub = DigestBatch.from_blob(b"".join(digests), decoded["s"])
            start = now_ns()
            _verdicts, _times, new_pairs = self.nodes[owner].serve_bucket_verdicts(sub)
            if timed:
                start = self._timed("hash_node.serve", trace_id, parent, start)
            self.logs[owner].log_insert_many(new_pairs)
            if timed:
                self._timed("persistence.log", trace_id, parent, start)
                self.sub_batches.append(digests)
            new_total += len(new_pairs)
        if new_total != expected_new and len(self.violations) < 20:
            self.violations.append(
                f"replay batch {trace_id}: {new_total} new, the model expects {expected_new}")
        if timed:
            self.tracer.spans.append(("replay.batch", trace_id, parent, 0, begin, now_ns()))
            self.batches += 1
            self.fps += len(identities)
            self.new_fps += new_total

    def counters(self) -> Dict[str, int]:
        totals = {name: 0 for name in _COUNTERS}
        for node in self.nodes.values():
            for name in _COUNTERS:
                totals[name] += node.counters.get(name)
        totals["page_reads"] = sum(node.store.page_reads for node in self.nodes.values())
        return totals


def _per_key_us(operation, sub_batches: List[Any]) -> float:
    total_ns = keys = 0
    for sub in sub_batches:
        start = now_ns()
        operation(sub)
        total_ns += now_ns() - start
        keys += len(sub)
    return total_ns / max(keys, 1) / 1e3


def _component_costs(config: HashNodeConfig, sub_batches: List[List[bytes]]) -> Dict[str, float]:
    """The storage layers alone, on the sub-batches a worker really saw."""
    bloom = BloomFilter(expected_items=config.bloom_expected_items,
                        false_positive_rate=config.bloom_false_positive_rate)
    store = SSDHashStore(num_buckets=config.ssd_buckets, page_size=config.ssd_page_size,
                         entry_size=config.ssd_entry_size,
                         write_buffer_pages=config.ssd_write_buffer_pages)
    pairs = [[(digest, CHUNK_SIZE) for digest in sub] for sub in sub_batches]
    get = store.get

    def get_each(sub: List[bytes]) -> None:
        for digest in sub:
            get(digest)

    return {
        "bloom.add_us_per_key": _per_key_us(bloom.add_many, sub_batches),
        "bloom.contains_us_per_key": _per_key_us(bloom.contains_many, sub_batches),
        "hashstore.put_us_per_key": _per_key_us(store.put_many_verdicts, pairs),
        "hashstore.get_us_per_key": _per_key_us(get_each, sub_batches),
    }


def _snapshot_and_recover(replay: _Replay) -> Tuple[float, float]:
    """(snapshot_ms, recover_ms), each the mean over the nodes."""
    snapshot_ns = recover_ns = 0
    for name, node in replay.nodes.items():
        log = replay.logs[name]
        start = now_ns()
        log.take_snapshot(node.bloom, entries=len(node.store), store=node.store)
        end = now_ns()
        replay.tracer.add("persistence.snapshot", 0, 0, start, end)
        snapshot_ns += end - start
        log.close()
        reopened = NodePersistence(log.directory, fsync=False)
        fresh = HybridHashNode(name, replay.config)
        start = now_ns()
        reopened.recover_into(fresh)
        end = now_ns()
        replay.tracer.add("persistence.recover", 0, 0, start, end)
        recover_ns += end - start
        reopened.close()
        if len(fresh.store) != len(node.store):
            replay.violations.append(
                f"replay recovery of {name}: {len(fresh.store)} entries, had {len(node.store)}")
    count = len(replay.nodes)
    return snapshot_ns / count / 1e6, recover_ns / count / 1e6


def run(workload: Workload, seed: int, tracer: Tracer,
        batches: int = REPLAY_BATCHES) -> Tuple[Dict[str, float], List[str]]:
    os.makedirs(OUT_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="replay-", dir=OUT_DIR)
    try:
        replay = _Replay(workload, tracer, directory)
        for lo, hi in prepopulation_batches(workload.prepopulate):
            replay.batch(list(range(lo, hi)), hi, hi - lo, timed=False)
        stream = IdentityStream(seed, workload.dup_fraction, workload.batch_size,
                                known=workload.prepopulate)
        before = replay.counters()
        for _ in range(batches):
            generated: Batch = stream.next_batch()
            replay.batch(generated.identities, generated.known_after,
                         generated.new_count, timed=True)
        delta = {name: value - before[name] for name, value in replay.counters().items()}
        snapshot_ms, recover_ms = _snapshot_and_recover(replay)
        stage = replay.stage_ns
        lookups = max(delta["lookups"], 1)
        bloom_positive = delta["ssd_hits"] + delta["bloom_false_positives"]
        layers = {
            "wire.encode_us_per_batch": stage["wire.encode"] / replay.batches / 1e3,
            "wire.decode_us_per_batch": stage["wire.decode"] / replay.batches / 1e3,
            "digest_batch.build_us_per_fp": stage["digest_batch.build"] / replay.fps / 1e3,
            "partition.route_us_per_fp": stage["partition.route"] / replay.fps / 1e3,
            "hash_node.serve_us_per_fp": stage["hash_node.serve"] / replay.fps / 1e3,
            "persistence.log_us_per_new_fp":
                stage["persistence.log"] / max(replay.new_fps, 1) / 1e3,
            "hash_node.ram_hit_frac": delta["ram_hits"] / lookups,
            "hash_node.ssd_hit_frac": delta["ssd_hits"] / lookups,
            "hash_node.new_frac": delta["new_entries"] / lookups,
            "hash_node.bloom_fp_frac": delta["bloom_false_positives"] / max(bloom_positive, 1),
            "lru.destages_per_fp": delta["destages"] / lookups,
            "hashstore.page_reads_per_lookup": delta["page_reads"] / max(bloom_positive, 1),
            "persistence.snapshot_ms": snapshot_ms,
            "persistence.recover_ms": recover_ms,
        }
        layers.update(_component_costs(replay.config, replay.sub_batches))
        return layers, replay.violations
    finally:
        shutil.rmtree(directory, ignore_errors=True)
