"""The SHHC cluster: partitioned hybrid hash nodes behind one lookup service.

:class:`SHHCCluster` owns the partitioner and the hybrid hash nodes and
offers the combined fingerprint store/lookup service of the paper:

* As a **library** (immediate mode) it implements the
  :class:`~repro.dedup.index.ChunkIndex` interface, so it drops into the
  directory archiver in place of a centralized index.
* As a **simulated deployment** it registers one RPC service per node on a
  :class:`~repro.network.rpc.RpcLayer`; web front-ends then send
  :class:`~repro.core.protocol.BatchLookupRequest` messages to individual
  nodes over the simulated fabric.

Lookup paths
------------
Every lookup goes through one routed core, :meth:`SHHCCluster._serve_routed`
-- bucket by serving node, the node's batch contract, failover, ledger
charge, batched replica propagation.  The public methods are views over
it: :meth:`SHHCCluster.lookup_batch` (``LookupResult``),
:meth:`SHHCCluster.lookup_batch_columns` (tier / service-time / node
columns), :meth:`SHHCCluster.lookup_batch_replies` (``LookupReply``), and
:meth:`SHHCCluster.lookup` / :meth:`SHHCCluster.lookup_reply`, their
one-key views.  The same code runs with and without a cost model; the
model only adds charges.  The per-key failover loop and per-reply
replication it replaced are ``tests/oracles/cluster_reference.py``.

Replication and failover semantics
----------------------------------
With ``ClusterConfig.replication_factor = k`` every fingerprint has a
*replica set* of ``k`` nodes: its partition owner plus the next ``k - 1``
distinct successors (Chord style, per partitioner).  The routing layer
maintains three invariants, failures included:

* **Serving**: a lookup (single or batched) is always answered by the first
  *live* node of the fingerprint's own replica set, read from the
  partitioner's boundary table
  (:meth:`~repro.core.partition.Partitioner.routing_table`) on every path
  -- nothing is cached per digest.  Batches are grouped per fingerprint
  (:meth:`SHHCCluster._bucket_routed`, grouping-identical to the reference
  in ``tests/oracles/batch_routing.py``), so each fingerprint fails over
  independently -- crucial for consistent hashing, where two fingerprints
  sharing a primary generally have different successors.
* **Write propagation**: a fingerprint judged new by its serving node is
  copied to the remaining live replicas through one write path,
  :meth:`SHHCCluster._propagate_new_groups` (one batched store write per
  destination, settled by
  :meth:`~repro.core.hash_node.HybridHashNode.finish_replica_inserts`;
  the RPC handler passes it one pair per new verdict), that does not touch
  the replicas' lookup counters or lookup times, so per-node load
  statistics and ``duplicate_ratio`` reflect client traffic only.  Its
  per-reply reference model is ``tests/oracles/cluster_reference.py``.
* **Read repair**: when a serving node misses but another live replica
  holds the fingerprint (typically a primary that was down when the write
  happened and has since recovered), the verdict is corrected to duplicate
  (``ServedFrom.REPAIR``), the serving node keeps the copy it just wrote,
  and any other live replica missing the fingerprint is backfilled.

Transient failures are handled too: a bucket refused with
:class:`~repro.core.fault_injection.NodeUnavailableError` (e.g. by a
:class:`~repro.core.fault_injection.FlakyNode` wrapper) is routed again as
a batch, each key to its live replica with the fewest refusals in the
request.  Background machinery for
re-replication after permanent failures lives in
:mod:`repro.core.replication`; scripted crash/recovery scenarios in
:mod:`repro.core.fault_injection`.

Size accounting distinguishes ``len(cluster)`` /
:meth:`SHHCCluster.distinct_fingerprints` (unique fingerprints, what a
client cares about) from :attr:`SHHCCluster.total_stored` (copies including
replicas, what capacity planning cares about).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..dedup.fingerprint import Fingerprint, column_builder
from ..dedup.index import ChunkIndex, ChunkLocation, LookupResult
from ..network.rpc import RpcLayer
from ..simulation.costmodel import ControlPlaneLedger, CostModel
from ..simulation.engine import Simulator
from .config import ClusterConfig
from .digest_batch import DigestBatch
from .fault_injection import FlakyNode, NodeUnavailableError
from .hash_node import HybridHashNode
from .persistence import PersistencePolicy, RecoveryReport
from .metrics import ClusterMetrics, LoadBalanceReport
from .partition import ConsistentHashRing, RangePartitioner
from .protocol import (
    SERVED_FROM_TIER,
    BatchLookupReply,
    BatchLookupRequest,
    LookupReply,
    ServedFrom,
    merge_by_position,
    replies_from_tiers,
)

__all__ = ["SHHCCluster"]

#: Shared empty location for lookup results; :class:`ChunkLocation` is a
#: frozen dataclass, so one instance is safe to hand to every result.
_EMPTY_LOCATION = ChunkLocation()

_build_results = column_builder(LookupResult)

#: Tier code the routed core writes over a node's ``0`` (new) when another
#: replica already held the fingerprint.
_REPAIR_TIER = SERVED_FROM_TIER.index(ServedFrom.REPAIR)


class SHHCCluster(ChunkIndex):
    """A scalable hybrid hash cluster (the paper's contribution)."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        sim: Optional[Simulator] = None,
        cost_model: Optional[CostModel] = None,
        persistence: Optional[PersistencePolicy] = None,
    ) -> None:
        self.config = config if config is not None else ClusterConfig()
        self.sim = sim
        #: Control-plane charging timeline (see simulation/costmodel.py),
        #: built whenever a cost model is given.  ``None`` (the default)
        #: keeps the historical free-control-plane behaviour byte-identical;
        #: enabled, replica propagation, read repair, migration copies and
        #: recovery replay are charged as deferred CPU + network time
        #: instead of being same-instant side effects.
        self.ledger: Optional[ControlPlaneLedger] = (
            ControlPlaneLedger(cost_model) if cost_model is not None else None
        )
        node_names = self.config.node_names
        if self.config.virtual_nodes > 0:
            self.partitioner = ConsistentHashRing(node_names, self.config.virtual_nodes)
        else:
            self.partitioner = RangePartitioner(node_names)
        #: Durable node storage (see core/persistence.py).  ``None`` (the
        #: default) keeps every node purely in-memory and byte-identical to
        #: the non-persistent build; enabled, each node journals acknowledged
        #: inserts to its own container log and :meth:`restart_node` recovers
        #: a killed node's state from disk.
        self.persistence = persistence
        self.nodes: Dict[str, HybridHashNode] = {
            name: HybridHashNode(
                name,
                self.config.node,
                sim,
                persistence=None if persistence is None else persistence.for_node(name),
            )
            for name in node_names
        }
        self._down: set = set()
        self.lookups = 0
        self.duplicates = 0
        self.read_repairs = 0
        self.failovers = 0
        self._batch_ids = itertools.count(1)
        self.last_batch_id = 0

    # ------------------------------------------------------------------ membership
    @property
    def node_names(self) -> List[str]:
        return list(self.nodes.keys())

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, name: str) -> HybridHashNode:
        """Look up a node object by name."""
        return self.nodes[name]

    def mark_down(self, name: str) -> None:
        """Mark a node as failed; lookups fail over to replicas."""
        if name not in self.nodes:
            raise KeyError(f"unknown node {name!r}")
        self._down.add(name)

    def mark_up(self, name: str) -> None:
        """Bring a failed node back into rotation."""
        self._down.discard(name)

    def is_down(self, name: str) -> bool:
        return name in self._down

    def kill_node(self, name: str) -> None:
        """Crash ``name`` for real: mark it down *and* destroy its in-memory state.

        Unlike :meth:`mark_down` (a reachability fault whose state survives),
        a kill loses the node's RAM cache, bloom filter and hash table --
        everything except what its persistence layer wrote to disk.
        """
        if name not in self.nodes:
            raise KeyError(f"unknown node {name!r}")
        self.mark_down(name)
        self.nodes[name].kill()

    def restart_node(self, name: str) -> Optional[RecoveryReport]:
        """Restart a killed node, recovering its state from disk.

        The node rebuilds its store and bloom filter from its container log
        (and snapshot, when one exists) before rejoining the rotation.  With
        a cost model the recovery work is charged to the ledger -- lookups
        landing on the node during warm-up queue behind the replay -- and the
        :class:`~repro.core.persistence.RecoveryReport` (``None`` for a node
        without persistence, which restarts empty) is returned with
        ``charged_seconds`` filled in.
        """
        if name not in self.nodes:
            raise KeyError(f"unknown node {name!r}")
        report = self.nodes[name].restart()
        if report is not None and self.ledger is not None:
            # The per-record work is the store rebuild (``entries``) plus the
            # bloom replay (``replayed``: the post-snapshot tail on a warm
            # restart, every live key on a cold one), and the snapshot load
            # is priced per byte -- so a warm restart is charged measurably
            # less than a full log replay.
            report.charged_seconds = self.ledger.charge_recovery(
                name, report.entries + report.replayed, report.snapshot_bytes
            )
        self.mark_up(name)
        return report

    # ------------------------------------------------------------------ routing
    def owner_of(self, fingerprint: Fingerprint) -> str:
        """Primary owner node for a fingerprint."""
        return self.partitioner.owner(fingerprint)

    def replica_set(self, fingerprint: Fingerprint) -> List[str]:
        """Owner plus successors, per the configured replication factor."""
        return self.partitioner.owners(fingerprint, self.config.replication_factor)

    # ------------------------------------------------------------------ ChunkIndex API
    def lookup(self, fingerprint: Fingerprint) -> LookupResult:
        """Combined lookup/insert through the cluster: a one-key :meth:`lookup_batch`."""
        return self.lookup_batch([fingerprint])[0]

    def lookup_reply(self, fingerprint: Fingerprint) -> LookupReply:
        """Protocol-level single lookup: a one-key :meth:`lookup_batch_replies`."""
        return self.lookup_batch_replies([fingerprint])[0]

    #: Refusals a node may give one request before the request stops routing
    #: to it.  Attempts are counted per node per request (one ``lookup_batch``
    #: call, its retries included), not per key.  Sized so realistic
    #: grey-failure rates (<~10% drops) practically never abort even with a
    #: single replica; a node refusing this many attempts is effectively dead
    #: and the request errors loudly.
    MAX_NODE_ATTEMPTS = 5

    def lookup_batch(self, fingerprints: Iterable[Fingerprint]) -> List[LookupResult]:
        """Batch lookup preserving input order (immediate mode).

        The :class:`~repro.dedup.index.LookupResult` view over
        :meth:`_serve_routed`: one result per key, written straight into
        its input position.  Verdicts, latencies, counters and replica
        writes are those of :meth:`lookup_batch_replies`, with or without a
        cost model.
        """
        fingerprints = list(fingerprints)
        merged: List[Optional[LookupResult]] = [None] * len(fingerprints)
        duplicates = 0
        for positions, bucket, tiers, service_times, node_ids in self._serve_routed(fingerprints):
            duplicates += len(tiers) - tiers.count(0)
            results = _build_results(
                len(tiers), bucket, map(bool, tiers), itertools.repeat(_EMPTY_LOCATION),
                service_times, node_ids,
            )
            for position, result in zip(positions, results):
                merged[position] = result
        self.lookups += len(fingerprints)
        self.duplicates += duplicates
        return merged

    def lookup_batch_replies(self, fingerprints: Sequence[Fingerprint]) -> List[LookupReply]:
        """Protocol-level batch lookup: bucket by serving node, query, merge.

        The :class:`LookupReply` view over :meth:`lookup_batch_columns`
        (exposes tier information).  Each fingerprint is grouped under the
        first live node of *its own* replica set, so a downed node's share
        of the batch fans out to the correct per-fingerprint successors
        instead of one blanket failover target -- which is what keeps batch
        verdicts identical to the per-key oracle's under failures (pinned in
        tests/test_routed_batch_equivalence.py).
        """
        fingerprints = list(fingerprints)
        return replies_from_tiers(fingerprints, *self.lookup_batch_columns(fingerprints))

    def lookup_batch_columns(
        self, fingerprints: Sequence[Fingerprint]
    ) -> Tuple[List[int], List[float], List[str]]:
        """Batch lookup as ``(tiers, service_times, node_ids)`` columns in input order.

        :meth:`_serve_routed`'s per-bucket columns merged by position once;
        ``tiers`` index :data:`~repro.core.protocol.SERVED_FROM_TIER`.
        """
        fingerprints = list(fingerprints)
        return merge_by_position(len(fingerprints), (
            (positions, tiers, service_times, node_ids)
            for positions, _bucket, tiers, service_times, node_ids
            in self._serve_routed(fingerprints)
        ))

    def _serve_routed(
        self, fingerprints: List[Fingerprint], attempts: Optional[Dict[str, int]] = None
    ):
        """The one routed batch core: bucket, serve, fail over, charge, propagate.

        The batch is bucketed per serving node in one pass
        (:meth:`_bucket_routed`), each bucket goes through the node's batch
        contract
        (:meth:`~repro.core.hash_node.HybridHashNode.serve_bucket_verdicts`),
        and the bucket's new pairs are shipped to the other replicas
        (:meth:`_propagate_new_groups`) before the next bucket is served --
        replica store writes therefore interleave with later buckets'
        serves exactly as in the per-reply flow, which keeps write-buffer
        flush boundaries, and so individual service times, identical to it.

        A refused bucket (:class:`NodeUnavailableError`) is one failover:
        its node's count in ``attempts`` (the request's refusals per node)
        goes up by one and the bucket is routed again and served through
        this core, in place, before the next bucket.

        Yields one ``(positions, fingerprints, tiers, service_times,
        node_ids)`` column group per served bucket, in first-occurrence
        bucket order; ``tiers`` index
        :data:`~repro.core.protocol.SERVED_FROM_TIER` and already carry the
        read repairs.  Callers merge the columns into their own result
        shape, so the batch is walked exactly once.
        """
        if not fingerprints:
            return
        if attempts is None:
            self.last_batch_id = next(self._batch_ids)
            attempts = {}
        replication_on = self.config.replication_factor > 1
        ledger = self.ledger
        nodes = self.nodes
        for serving, (positions, bucket, digests) in self._bucket_routed(
            fingerprints, attempts
        ).items():
            node = nodes[serving]
            try:
                tiers, service_times, new_pairs = node.serve_bucket_verdicts(
                    DigestBatch.from_fingerprints(bucket, digests)
                )
            except NodeUnavailableError:
                self.failovers += 1
                attempts[serving] = attempts.get(serving, 0) + 1
                for retried, *columns in self._serve_routed(bucket, attempts):
                    yield [positions[index] for index in retried], *columns
                continue
            node.lookup_latency.add_many(service_times)
            if ledger is not None:
                # Queue the bucket on the serving node's timeline first:
                # replica propagation below leaves at the bucket's
                # completion instant, not at dispatch.
                ledger.charge_bucket(serving, service_times)
            # A bucket that answered only duplicates has nothing to
            # propagate or repair.
            if replication_on and new_pairs:
                repaired = self._propagate_new_groups(new_pairs, serving)
                if repaired:
                    # One flip per repaired digest: its later occurrences
                    # in the bucket were already served as duplicates.
                    for index, digest in enumerate(digests):
                        if digest in repaired and not tiers[index]:
                            tiers[index] = _REPAIR_TIER
            yield positions, bucket, tiers, service_times, itertools.repeat(serving)

    def _bucket_routed(
        self, fingerprints: Sequence[Fingerprint], attempts: Optional[Dict[str, int]] = None
    ) -> Dict[str, Tuple[List[int], List[Fingerprint], List[bytes]]]:
        """Group a batch by serving node: ``{node: (positions, fps, digests)}``.

        Shared by :meth:`_serve_routed` and :meth:`route_batch`; buckets
        come back in first-occurrence order (matching the grouping of
        ``split_batch_by_replica_set`` in ``tests/oracles/batch_routing.py``).
        A digest's replica set is its first byte's prefix-table entry, or,
        on a prefix a partition boundary cuts, the boundary table's slot
        (:meth:`~repro.core.partition.Partitioner.routing_table`).  It is
        served by the set's first member unless that member is down or has
        refused this request (``attempts``: refusals per node); then by the
        live member with the fewest refusals, set order on ties, leaving out
        members at :attr:`MAX_NODE_ATTEMPTS`.
        """
        bounds, sets, prefix = self.partitioner.routing_table(self.config.replication_factor)
        down = self._down
        attempts = attempts or {}
        refusals = attempts.get
        limit = self.MAX_NODE_ATTEMPTS
        skip = down.union(attempts) if attempts else down
        # Route over a flat digest list and bucket positions only; the
        # per-bucket fingerprint/digest lists (the digests ride along so the
        # serve step can hand the node a packed DigestBatch) are gathered
        # afterwards with listcomps, which beats three appends per key.
        all_digests = [fingerprint.digest for fingerprint in fingerprints]
        by_position: Dict[str, List[int]] = {}
        # Bound-append table: one dict probe and one call per key, no
        # repeated ``.append`` attribute lookups on the hot loop.
        appends: Dict[str, object] = {}
        appends_get = appends.get
        for position, digest in enumerate(all_digests):
            replicas = prefix[digest[0]]
            if replicas is None:
                replicas = sets[bisect_right(bounds, digest)]
            serving = replicas[0]
            if serving in skip:
                live = [name for name in replicas
                        if name not in down and refusals(name, 0) < limit]
                if not live:
                    raise RuntimeError(
                        f"no live replica available for fingerprint {digest.hex()} "
                        f"(down, or refused {limit} attempts)"
                    )
                # min() keeps the first of equals: replica-set order on ties.
                serving = min(live, key=lambda name: refusals(name, 0))
            append = appends_get(serving)
            if append is None:
                by_position[serving] = positions = []
                appends[serving] = append = positions.append
            append(position)
        buckets: Dict[str, Tuple[List[int], List[Fingerprint], List[bytes]]] = {}
        for serving, positions in by_position.items():
            buckets[serving] = (
                positions,
                [fingerprints[position] for position in positions],
                [all_digests[position] for position in positions],
            )
        return buckets

    def _propagate_new_groups(self, new_pairs, serving: str) -> set:
        """Ship new ``(digest, chunk_size)`` pairs served by ``serving`` to their replicas.

        The cluster's one replica write: the routed core hands it a bucket's
        new pairs, the RPC handler one pair per new verdict.  The pairs are
        grouped per destination node and written with one batched store
        call each; returns the set of digests some other replica already
        held (the read repairs).  The store write doubles as the holder
        check:
        :meth:`~repro.storage.hashstore.SSDHashStore.put_many_verdicts`
        returns which keys were absent, which *is* the propagation/repair
        verdict, and an already-present digest is overwritten with the
        identical value (a no-op, since a digest determines its chunk
        size).  Per-node store state is unaffected by the cross-node
        interleaving of the per-reply reference model
        (``tests/oracles/cluster_reference.py``), and within one node the
        pairs stay in bucket order, so the persistence log order matches
        too.
        """
        down = self._down
        nodes = self.nodes
        bounds, sets, prefix = self.partitioner.routing_table(self.config.replication_factor)
        per_node: Dict[str, List[Tuple[bytes, int]]] = {}
        per_node_get = per_node.get
        # Live non-serving replicas per (shared) replica-set tuple: a bucket
        # sees few distinct sets -- one, for a range partitioner with no
        # node down -- so the serving/liveness filter runs once per set.
        others_of: Dict[Tuple[str, ...], List[str]] = {}
        others_of_get = others_of.get
        for pair in new_pairs:
            digest = pair[0]
            replicas = prefix[digest[0]]
            if replicas is None:
                replicas = sets[bisect_right(bounds, digest)]
            others = others_of_get(replicas)
            if others is None:
                others_of[replicas] = others = [
                    name for name in replicas if name != serving and name not in down
                ]
            for name in others:
                pairs = per_node_get(name)
                if pairs is None:
                    per_node[name] = pairs = []
                pairs.append(pair)
        repaired: set = set()
        pending: Dict[str, int] = {}
        for name, pairs in per_node.items():
            if len(pairs) == len(new_pairs):
                # Every pair goes here: write the bucket's own list and drop
                # the copy first.  A copy held across the store write raised
                # lib_cluster_rf2's peak RSS by ~4% (heap layout).
                per_node[name] = pairs = new_pairs
            new_digests, existing = nodes[name].store.put_many_verdicts(pairs)
            if existing:
                repaired.update(existing)
            if new_digests:
                # Deferred bloom/counter settlement, one call per node.
                nodes[name].finish_replica_inserts(new_digests)
                pending[name] = len(new_digests)
        if repaired:
            # Distinct digests per bucket (a repeat is answered as a
            # duplicate by the serving node), so set size == repaired replies.
            self.read_repairs += len(repaired)
        if pending and self.ledger is not None:
            self.ledger.charge_replica_writes(pending)
        return repaired

    def close(self) -> None:
        """Release per-node persistence file handles (no-op without persistence)."""
        for node in self.nodes.values():
            if node.persistence is not None:
                node.persistence.close()

    def route_batch(
        self,
        fingerprints: Sequence[Fingerprint],
        client_id: str = "",
        batch_id: int = 0,
    ) -> Dict[str, Tuple[BatchLookupRequest, List[int]]]:
        """Split a batch into per-serving-node requests.

        Protocol-compatible with ``split_batch_by_replica_set`` in
        ``tests/oracles/batch_routing.py`` (same grouping, same
        request/position layout) but grouped by
        :meth:`_bucket_routed`, so web front-ends dispatching on the
        simulated fabric share the cluster's routing work.
        """
        return {
            node: (BatchLookupRequest(bucket, client_id, batch_id, digests), positions)
            for node, (positions, bucket, digests) in self._bucket_routed(fingerprints).items()
        }

    def __len__(self) -> int:
        """Distinct fingerprints stored in the cluster (replicas deduplicated)."""
        return self.distinct_fingerprints()

    def distinct_fingerprints(self) -> int:
        """Number of unique fingerprints, counting each replica group once."""
        if self.config.replication_factor == 1:
            # Without replication every copy is unique; skip the digest scan.
            return self.total_stored
        digests = set()
        for node in self.nodes.values():
            digests.update(node.store.keys())
        return len(digests)

    @property
    def total_stored(self) -> int:
        """Stored copies across all nodes, replicas included (capacity view)."""
        return sum(len(node) for node in self.nodes.values())

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        """Read-only membership: checks the replica set without inserting."""
        return any(fingerprint in self.nodes[name] for name in self.replica_set(fingerprint))

    # ------------------------------------------------------------------ simulated mode
    def register_services(self, rpc: RpcLayer) -> None:
        """Expose each hash node as an RPC service on the simulated network.

        The handler has no failover, so a :class:`FlakyNode` is refused.
        """
        flaky = [name for name, node in self.nodes.items() if isinstance(node, FlakyNode)]
        if flaky:
            raise ValueError(f"{flaky} are FlakyNode wrappers; the simulated deployment "
                             "schedules no faults: replay grey failures in immediate mode "
                             "(repro run failover --set failure_rate=..., docs/failover.md)")
        for name, node in self.nodes.items():
            rpc.register(name, self._make_handler(node))

    def _make_handler(self, node: HybridHashNode):
        node_id = node.node_id

        def _handle(request: BatchLookupRequest, respond) -> None:
            def _finalize(reply: BatchLookupReply) -> None:
                if self.config.replication_factor > 1:
                    # Replica propagation / read repair for RPC-served
                    # batches, applied at the reply instant one new verdict
                    # at a time: one replica message per fingerprint, charged
                    # to the ledger when there is a cost model.  A duplicate
                    # stands as-is.
                    tiers = reply.tiers
                    for index, fingerprint in enumerate(reply.fingerprints):
                        if not tiers[index] and self._propagate_new_groups(
                            [(fingerprint.digest, fingerprint.chunk_size)], node_id
                        ):
                            tiers[index] = _REPAIR_TIER
                respond(reply, reply.payload_bytes)

            node.serve_batch(request, _finalize)

        return _handle

    # ------------------------------------------------------------------ reporting
    def metrics(self) -> ClusterMetrics:
        """Aggregated per-node statistics (plus the distinct/total split).

        With ``replication_factor > 1`` the distinct count requires a scan
        over every node's stored digests, so treat this as a reporting call,
        not a hot-path one.
        """
        metrics = ClusterMetrics.from_nodes(list(self.nodes.values()))
        metrics.distinct_entries = self.distinct_fingerprints()
        return metrics

    def storage_distribution(self) -> LoadBalanceReport:
        """Hash entries stored per node (Figure 6); skips the distinct scan."""
        return ClusterMetrics.from_nodes(list(self.nodes.values())).storage_distribution()

    def duplicate_ratio(self) -> float:
        """Fraction of cluster lookups that found an existing fingerprint."""
        return self.duplicates / self.lookups if self.lookups else 0.0

    def mean_lookup_latency(self) -> float:
        """Mean per-fingerprint service time across nodes (seconds)."""
        times = [node.lookup_latency for node in self.nodes.values()]
        count = sum(time.count for time in times)
        return sum(time.total for time in times) / count if count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # total_stored, not len(self): a repr must not trigger the distinct scan.
        return f"<SHHCCluster nodes={self.num_nodes} stored={self.total_stored}>"
