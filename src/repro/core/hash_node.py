"""The hybrid hash node: RAM LRU cache + bloom filter + SSD hash table.

This is the building block of the paper's contribution (§III.B, Figures 3-4).
Each node owns a contiguous slice of the fingerprint space and answers
"is this chunk already stored?" queries with the following tiered lookup:

1. probe the RAM LRU cache -- a hit is answered immediately and refreshed;
2. on a miss, probe the in-RAM bloom filter guarding the SSD table -- a
   negative means the fingerprint is definitely new, so it is inserted
   (write-buffered) into the SSD table, added to the bloom filter and cached;
3. a positive bloom filter sends the lookup to the SSD hash table -- a hit is
   promoted into the RAM cache and answered as a duplicate, a miss (bloom
   false positive) is treated like a new fingerprint.

The node tracks where every answer came from (:class:`~repro.core.protocol.ServedFrom`)
and how much device time the answer cost, which is what the latency/throughput
experiments consume.

Entry points
------------
Every key, alone or in a batch, goes through one serve contract,
:meth:`HybridHashNode.serve_bucket_verdicts` -- a
:class:`~repro.core.digest_batch.DigestBatch` in, ``(tiers, service_times,
new_pairs)`` columns out -- run by one private core over the exec-generated
kernels of :mod:`repro.core.bucket_kernel`.  The node builds no per-key
objects: the cluster (``SHHCCluster._serve_routed``) and the live worker
call the contract directly, and the simulated :meth:`HybridHashNode.serve_batch`
answers with its columns.  The readable per-fingerprint flow above is kept
as the kernel's oracle in ``tests/oracles/node_reference.py``.

Two execution modes
-------------------
* **Immediate mode** (``sim is None``): :meth:`serve_bucket_verdicts`
  updates the data structures and returns analytic service times from the
  device cost models.  This is the mode library users get when they use the
  cluster as a real dedup index.
* **Simulated mode**: :meth:`serve_batch` hands its
  :class:`~repro.core.protocol.BatchLookupReply` to a callback once the
  node's CPU worker pool and SSD device have actually been held for the
  required time on the simulated clock, so queueing and saturation emerge.
"""

from __future__ import annotations

from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..dedup.fingerprint import Fingerprint
from ..simulation.engine import Simulator
from ..simulation.resources import Resource
from ..storage.bloom import BloomFilter
from ..storage.devices import StorageDevice, make_ram, make_ssd
from ..storage.hashstore import SSDHashStore
from ..storage.lru import LRUCache
from .bucket_kernel import fused_kernel
from .config import HashNodeConfig
from .digest_batch import DigestBatch
from .persistence import NodePersistence, RecoveryReport
from .protocol import BatchLookupReply, BatchLookupRequest

__all__ = ["HybridHashNode", "LookupTime", "NodeSnapshot"]

#: Counters every node starts with at zero, so a reader's ``get`` of any of
#: them is an int before the node has served anything.
_NODE_COUNTERS = (
    "lookups", "ram_hits", "ssd_hits", "new_entries", "destages",
    "bloom_negative_shortcuts", "bloom_false_positives", "replica_inserts",
)

#: Lookups the node serves before it re-decides its RAM-probe spelling.
_PROBE_WINDOW = 128


@dataclass
class NodeSnapshot:
    """Point-in-time statistics of a node, used by reports and Figure 6."""

    node_id: str
    entries: int
    ram_cached: int
    lookups: int
    ram_hits: int
    ssd_hits: int
    new_entries: int
    destages: int
    bloom_negative_shortcuts: int
    bloom_false_positives: int
    counters: dict = field(default_factory=dict)

    @property
    def duplicates(self) -> int:
        return self.ram_hits + self.ssd_hits

    @property
    def ram_hit_ratio(self) -> float:
        return self.ram_hits / self.lookups if self.lookups else 0.0


@dataclass
class LookupTime:
    """Modelled lookups served and their service time summed in order (seconds).

    The mean is all anyone reads of it (``SHHCCluster.mean_lookup_latency``,
    ``SingleNodeHashServer.mean_latency`` divide ``total`` by ``count``).
    """

    count: int = 0
    total: float = 0.0

    def add(self, seconds: float, count: int = 1) -> None:
        """Record ``count`` lookups of ``seconds`` each."""
        self.count += count
        self.total += seconds * count

    def add_many(self, service_times: Sequence[float]) -> None:
        """Record one lookup per time, adding them left to right."""
        total = self.total
        for seconds in service_times:
            total += seconds
        self.total = total
        self.count += len(service_times)


class HybridHashNode:
    """A single RAM+SSD hash node of the SHHC cluster."""

    def __init__(
        self,
        node_id: str,
        config: Optional[HashNodeConfig] = None,
        sim: Optional[Simulator] = None,
        ram_device: Optional[StorageDevice] = None,
        ssd_device: Optional[StorageDevice] = None,
        persistence: Optional[NodePersistence] = None,
        bloom: Optional[BloomFilter] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config if config is not None else HashNodeConfig()
        self.sim = sim
        self.ram_device = ram_device if ram_device is not None else make_ram(sim, f"{node_id}.ram")
        self.ssd_device = ssd_device if ssd_device is not None else make_ssd(sim, f"{node_id}.ssd")
        self.cache = LRUCache(self.config.ram_cache_entries)
        # An injected filter (a test's chosen geometry) must be in place
        # *before* recovery below restores the snapshot bits into it.
        self.bloom = bloom if bloom is not None else BloomFilter(
            expected_items=self.config.bloom_expected_items,
            false_positive_rate=self.config.bloom_false_positive_rate,
        )
        self.store = SSDHashStore(
            num_buckets=self.config.ssd_buckets,
            page_size=self.config.ssd_page_size,
            entry_size=self.config.ssd_entry_size,
            write_buffer_pages=self.config.ssd_write_buffer_pages,
        )
        self.counters: Counter = Counter(dict.fromkeys(_NODE_COUNTERS, 0))
        self.lookup_latency = LookupTime()
        # Reusable fused-kernel argument block and the bloom shape's kernel
        # (both resolved lazily by _serve_core; identity-guarded against
        # cache/bloom/store replacement).
        self._fused_args: Optional[list] = None
        self._kernel = None
        # The kernel's RAM-probe spelling (see repro.core.bucket_kernel):
        # optimistic while at least 90% of the most recent window of
        # >= _PROBE_WINDOW lookups were RAM hits.  The window is kept as
        # the (lookups, ram_hits) counters at its start.
        self._optimistic_probe = False
        self._probe_window = (0, 0)
        self._cpu: Optional[Resource] = (
            Resource(sim, capacity=self.config.service_concurrency, name=f"{node_id}.cpu")
            if sim is not None
            else None
        )
        #: Durable storage lifecycle (``None`` keeps the node fully in-memory
        #: and every code path byte-identical to the non-persistent build).
        self.persistence = persistence
        #: Report of the most recent disk recovery (construction-time warm
        #: start or :meth:`restart`); ``None`` until one happens.
        self.last_recovery: Optional[RecoveryReport] = None
        if persistence is not None and persistence.records:
            # Prior on-disk state exists: this is a process restart, so warm
            # the index before serving anything.
            self.last_recovery = persistence.recover_into(self)

    # ------------------------------------------------------------------ state
    def __len__(self) -> int:
        """Number of distinct fingerprints stored on this node."""
        return len(self.store)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        """Read-only membership check (does not insert or touch the cache)."""
        return fingerprint.digest in self.store

    # --------------------------------------------------------- immediate mode
    def serve_bucket_verdicts(
        self, batch: DigestBatch
    ) -> Tuple[List[int], List[float], List[Tuple[bytes, int]]]:
        """The batch serve contract: ``(tiers, service_times, new_pairs)``.

        ``tiers[i]`` is digest ``i``'s tier code -- an index into
        :data:`~repro.core.protocol.SERVED_FROM_TIER` (``0`` new, ``1`` RAM,
        ``2`` SSD), so its truthiness is the duplicate verdict and
        ``bytes(tiers)`` feeds :func:`~repro.serving.wire.verdict_mask`
        directly.  ``service_times`` is parallel to it; ``new_pairs`` holds
        the ``(digest, chunk_size)`` of every key answered new, in input
        order -- what replica propagation and the container log need.  The
        pairs are durably logged before this returns, so a caller that
        acknowledges the batch acknowledges nothing that a kill can lose.

        No ``Fingerprint`` or ``LookupResult`` exists on this path; the
        cluster builds results as a view over the columns.  Nor is anything
        recorded per key: ``service_times`` is the *modelled* cost, and a
        caller that publishes the model (``SHHCCluster._serve_routed``)
        feeds it to :attr:`lookup_latency` itself -- a live worker measures
        its batches instead and never pays for the model's bookkeeping.
        """
        return self._serve_core(batch)[:3]

    def _serve_core(
        self, batch: DigestBatch
    ) -> Tuple[List[int], List[float], List[Tuple[bytes, int]], float]:
        """Run one batch through the fused kernel and settle every tier.

        The single batch core behind immediate (:meth:`serve_bucket_verdicts`)
        and simulated (:meth:`serve_batch`) mode.  Returns the contract's
        three lists plus the batch's total SSD time, which the simulated
        path replays against the SSD device to model queueing.
        """
        cache = self.cache
        cached = cache.data
        store = self.store
        bloom = self.bloom
        table, counts, store_num_buckets, entries_per_page, write_buffer_pages, buffered = (
            store.batch_state()
        )
        bits = bloom.raw_bits()
        args = self._fused_args
        if args is None or args[3] is not cached or args[7] is not bits or args[8] is not table:
            # (Re)build the constant argument block.  Slots 0-2 and 18-21
            # are per-batch; everything else is fixed for the lifetime of
            # the node's cache/bloom/store objects (device costs are pure
            # functions of the spec), so the identity guard above is the
            # only invalidation needed -- kill/restart and recovery replace
            # those objects wholesale, and a new filter (new bits) is the
            # only way the kernel's shape can change.
            self._kernel = fused_kernel(bloom.num_bits, bloom.num_hashes)
            args = self._fused_args = [
                None, None, None, cached, cached.move_to_end, cached.popitem,
                cache.capacity, bits, table, counts,
                store_num_buckets, entries_per_page, write_buffer_pages,
                buffered,
                self.config.cpu_per_lookup + self.ram_device.read_cost(64),
                self.ssd_device.read_cost(store.page_size),
                self.ssd_device.write_cost(store.page_size),
                self.ssd_device.write_cost(store.page_size, False),
                None, None, None, False,
            ]
        digests = batch.digests
        # Every key starts as a RAM hit (tier 1 at slot 14's RAM-hit time);
        # the kernel overwrites the tier and time of every other key.
        tiers: List[int] = [1] * len(digests)
        service_times: List[float] = [args[14]] * len(digests)
        new_pairs: List[Tuple[bytes, int]] = []
        args[0] = digests
        # The filter hashes with each digest's own leading words, which the
        # batch derives in one unpack.
        args[1] = batch.hash_words
        args[2] = batch.chunk_sizes
        args[13] = buffered
        args[18] = tiers
        args[19] = service_times
        args[20] = new_pairs.append
        args[21] = self._optimistic_probe
        (
            ram_hits, ssd_hits, new_entries, bloom_negative_shortcuts,
            bloom_false_positives, total_ssd_time, page_reads, page_writes,
            buffer_flushes, buffered, cache_insertions, cache_evictions,
        ) = self._kernel(*args)
        args[0] = args[1] = args[2] = args[18] = args[19] = args[20] = None
        store.settle_batch(page_reads, page_writes, buffer_flushes, buffered)
        if new_entries:
            bloom.count_inserts(new_entries)
        total = len(digests)
        if total:
            cache.hits += ram_hits
            cache.misses += total - ram_hits
        if cache_insertions:
            cache.insertions += cache_insertions
        if cache_evictions:
            cache.evictions += cache_evictions
        counters = self.counters
        counters["destages"] += cache_evictions  # every eviction is a destage
        counters["lookups"] += total
        counters["ram_hits"] += ram_hits
        counters["ssd_hits"] += ssd_hits
        counters["new_entries"] += new_entries
        counters["bloom_negative_shortcuts"] += bloom_negative_shortcuts
        counters["bloom_false_positives"] += bloom_false_positives
        start_lookups, start_ram_hits = self._probe_window
        window = counters["lookups"] - start_lookups
        if window >= _PROBE_WINDOW:
            # The optimistic spelling breaks even at 55-82% hits, depending
            # on the table's size; 90% keeps every miss-heavy workload on
            # the checked spelling.
            self._optimistic_probe = (counters["ram_hits"] - start_ram_hits) * 10 >= window * 9
            self._probe_window = (counters["lookups"], counters["ram_hits"])
        if new_pairs and self.persistence is not None:
            self._persist_new(new_pairs)
        return tiers, service_times, new_pairs, total_ssd_time

    def finish_replica_inserts(self, new_digests: Sequence[bytes]) -> None:
        """Complete replica writes whose store puts already happened.

        The cluster's one replica write
        (``SHHCCluster._propagate_new_groups``) combines the holder check
        and the store write into one ``store.put_many_verdicts`` per
        destination (its verdicts *are* the holder check) and then settles
        the bloom filter, the ``replica_inserts`` counter and the log here,
        once per destination.  A replica write is not a lookup: it touches
        neither ``lookups`` nor :attr:`lookup_latency`, nor the RAM LRU,
        which holds only what this node served.
        """
        if new_digests:
            # A list of 20-byte digests straight out of the peer's store, so
            # add_many packs it.
            self.bloom.add_many(new_digests)
            self.counters["replica_inserts"] += len(new_digests)
            if self.persistence is not None:
                store_get = self.store.get
                self._persist_new((digest, store_get(digest)) for digest in new_digests)

    # ------------------------------------------------------------- persistence
    def _persist_new(self, pairs) -> None:
        """Append acknowledged inserts to the log; checkpoint the bloom when due.

        The checkpoint only captures the bits here; its write runs in the
        background (see :meth:`NodePersistence.begin_snapshot`).
        """
        persistence = self.persistence
        persistence.log_insert_many(pairs)
        if persistence.snapshot_due():
            persistence.begin_snapshot(self.bloom, entries=len(self.store))
            self.counters["snapshots"] += 1

    def kill(self) -> None:
        """Crash this node: every in-memory structure is destroyed.

        The RAM cache, bloom filter, and hash table are replaced with empty
        ones, exactly as a process kill would lose them; only what the
        persistence layer wrote to disk survives.  Cumulative statistics
        (counters, :attr:`lookup_latency`) are harness-side observability and are
        deliberately kept.  An image write in flight is waited out first, so
        the disk holds what it would after a real kill -- the new image, or
        (the write failed) the previous one; the write's error dies with the
        process.
        """
        if self.persistence is not None:
            with suppress(Exception):
                self.persistence.finish_snapshot()
        config = self.config
        self.cache = LRUCache(config.ram_cache_entries)
        self.bloom = BloomFilter(
            expected_items=config.bloom_expected_items,
            false_positive_rate=config.bloom_false_positive_rate,
        )
        self.store = SSDHashStore(
            num_buckets=config.ssd_buckets,
            page_size=config.ssd_page_size,
            entry_size=config.ssd_entry_size,
            write_buffer_pages=config.ssd_write_buffer_pages,
        )
        self.counters["kills"] += 1

    def restart(self) -> Optional[RecoveryReport]:
        """Recover this node's state from disk after :meth:`kill`.

        Returns the :class:`~repro.core.persistence.RecoveryReport`, or
        ``None`` when the node has no persistence layer -- in which case it
        restarts empty (honest data loss, which the failover experiments
        surface as reduced accuracy at replication factor 1).
        """
        self.counters["restarts"] += 1
        if self.persistence is None:
            return None
        report = self.persistence.recover_into(self)
        self.last_recovery = report
        return report

    # --------------------------------------------------------- simulated mode
    def serve_batch(
        self, request: BatchLookupRequest, on_reply: Callable[[BatchLookupReply], None]
    ) -> None:
        """Serve a batch on the simulated clock; ``on_reply(reply)`` runs when done.

        A chain of callbacks, starting at the current instant: the node's
        CPU worker pool is granted, then held for the per-request plus
        per-fingerprint CPU time; accumulated SSD page time is then spent on
        the shared SSD device (modelling its queue).  The reply is the batch
        contract's columns in a :class:`BatchLookupReply`.
        """
        sim, cpu = self.sim, self._cpu
        if sim is None or cpu is None:
            raise RuntimeError("serve_batch requires a node constructed with a Simulator")
        arrival = sim.now
        fingerprints = request.fingerprints

        def granted() -> None:
            tiers, service_times, _new_pairs, total_ssd_time = self._serve_core(
                DigestBatch.from_fingerprints(fingerprints, request.digests)
            )
            reply = BatchLookupReply(
                fingerprints, tiers, service_times, self.node_id, request.batch_id
            )

            def finished() -> None:
                self.lookup_latency.add((sim.now - arrival) / max(1, len(tiers)), len(tiers))
                self.counters["batches_served"] += 1
                on_reply(reply)

            def cpu_done() -> None:
                cpu.release()
                if total_ssd_time > 0:
                    # One aggregated access keeps the event count proportional
                    # to the number of batches rather than fingerprints; the
                    # SSD device still serialises concurrent batches, so
                    # contention is preserved.
                    self.ssd_device.busy(total_ssd_time, finished)
                else:
                    finished()

            cpu_time = self.config.cpu_per_request + self.config.cpu_per_lookup * len(fingerprints)
            if cpu_time > 0:
                sim.schedule(cpu_time, cpu_done)
            else:
                cpu_done()

        # The chain starts from a zero-delay calendar entry, not inline: an
        # inline start would run ahead of entries already queued for this
        # instant and re-order equal-time work.
        sim.schedule(0.0, cpu.request, granted)

    # ---------------------------------------------------------------- reporting
    def snapshot(self) -> NodeSnapshot:
        """Statistics snapshot used by cluster metrics and Figure 6."""
        return NodeSnapshot(
            node_id=self.node_id,
            entries=len(self.store),
            ram_cached=len(self.cache),
            lookups=self.counters["lookups"],
            ram_hits=self.counters["ram_hits"],
            ssd_hits=self.counters["ssd_hits"],
            new_entries=self.counters["new_entries"],
            destages=self.counters["destages"],
            bloom_negative_shortcuts=self.counters["bloom_negative_shortcuts"],
            bloom_false_positives=self.counters["bloom_false_positives"],
            counters=dict(self.counters),
        )

    def export_entries(self) -> List[Tuple[bytes, object]]:
        """All stored ``(digest, value)`` pairs -- used by rebalancing/migration."""
        return list(self.store.items())

    def import_entries(self, entries: Sequence[Tuple[bytes, object]]) -> int:
        """Bulk-load entries (e.g. during rebalancing); returns how many were new."""
        store_put = self.store.put
        new_pairs = [(digest, value) for digest, value in entries if store_put(digest, value)]
        self.bloom.add_many([digest for digest, _value in new_pairs])
        if new_pairs and self.persistence is not None:
            self._persist_new(new_pairs)
        return len(new_pairs)

    def remove_entries(self, digests: Sequence[bytes]) -> int:
        """Drop fingerprints, logged as one frame; bloom bits remain set, by design."""
        for digest in digests:
            self.cache.remove(digest)
        removed = [digest for digest in digests if self.store.remove(digest)]
        if removed and self.persistence is not None:
            self.persistence.log_remove_many(removed)
        return len(removed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HybridHashNode {self.node_id} entries={len(self.store)}>"
