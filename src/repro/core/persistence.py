"""Crash-consistent node storage: fingerprint log + bloom checkpoints.

The paper keeps each node's fingerprint table on SSD as a Berkeley DB
(§III.B), so a crashed node can come back with its index intact.  This
module gives :class:`~repro.core.hash_node.HybridHashNode` the same
property on top of the repo's own storage primitives:

* **Fingerprint log** -- every acknowledged batch is appended to an
  on-disk :class:`~repro.storage.fplog.FingerprintLog` as one CRC32-framed
  frame (keys and values as columns), flushed before the reply.  The log
  *is* the durable image of the store: there is no separate table snapshot
  to write, and recovery refills the store frame by frame -- a key's bucket
  is a function of the key, so nothing about placement is on disk.  A torn
  tail is truncated on open.
* **Bloom checkpoints** -- the node's bloom filter bit array is periodically
  written through :func:`~repro.storage.snapshot.write_snapshot` (tmp file
  + fsync + atomic rename), a constant-size image whatever the shard holds.
  A warm restart loads it in one bulk copy and re-adds only the keys logged
  after it, instead of re-hashing every fingerprint.  The rename is the
  commit point: a crash before it leaves the previous image (or none), a
  crash after it the new one, and the image's own checksum, geometry and
  record count decide whether recovery may use it.  A stale ``.tmp`` from
  an interrupted checkpoint is deleted when the node reopens or restarts.
  A checkpoint copies the bits on the serving thread
  (:meth:`NodePersistence.begin_snapshot`) and writes, fsyncs and renames
  the copy on a background thread, at most one per node; the write is
  joined, and its error raised, by :meth:`NodePersistence.finish_snapshot`.

:meth:`NodePersistence.recover_into` rebuilds a freshly constructed node's
store and bloom filter in one pass over the log and returns a
:class:`RecoveryReport` that the cluster prices through the PR 6 cost
model, so warm-up after a restart is visible in simulated latency.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..storage.fplog import OP_PUT, OP_REMOVE, FingerprintLog
from ..storage.snapshot import SnapshotError, discard_staged, read_snapshot, write_snapshot

__all__ = ["PersistencePolicy", "RecoveryReport", "NodePersistence"]


@dataclass(frozen=True)
class PersistencePolicy:
    """How a cluster persists its hash nodes.

    Parameters
    ----------
    directory:
        Root directory; each node gets its own subdirectory named after its
        node id.
    fsync:
        Force container appends to disk (power-loss durability).
        Off by default: the fault model in the simulator is process kill,
        for which OS-buffered writes survive.
    snapshot_every:
        Take a bloom snapshot every N container records (0 disables
        automatic snapshots; recovery then falls back to full log replay).
    """

    directory: str
    fsync: bool = False
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        if not self.directory:
            raise ValueError("persistence directory must be non-empty")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")

    def for_node(self, node_id: str) -> "NodePersistence":
        """Open (or create) the persistence state for ``node_id``."""
        return NodePersistence(
            os.path.join(self.directory, node_id),
            fsync=self.fsync,
            snapshot_every=self.snapshot_every,
        )


@dataclass
class RecoveryReport:
    """What one recovery pass did, for observability and cost charging."""

    node_id: str = ""
    #: Live fingerprints loaded back into the node's store.
    entries: int = 0
    #: Container records on disk at recovery time (puts + deletes).
    records: int = 0
    #: Records replayed into the bloom filter (tail after the snapshot, or
    #: every live key on a cold replay).
    replayed: int = 0
    snapshot_loaded: bool = False
    snapshot_bytes: int = 0
    #: Torn container tail dropped during recovery (bytes).
    truncated_bytes: int = 0
    #: Wall-clock seconds the recovery pass took (host time, not simulated).
    wall_seconds: float = 0.0
    #: Simulated CPU seconds the cost model charged for this recovery
    #: (0 when no cost model is attached).
    charged_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


class NodePersistence:
    """On-disk state for one hash node: fingerprint log and bloom image."""

    CONTAINER_NAME = "containers.log"
    SNAPSHOT_NAME = "bloom.snap"

    def __init__(self, directory: str, fsync: bool = False, snapshot_every: int = 0) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self.snapshot_path = os.path.join(directory, self.SNAPSHOT_NAME)
        self.container = FingerprintLog(os.path.join(directory, self.CONTAINER_NAME), fsync=fsync)
        discard_staged(self.snapshot_path)
        #: Log record count covered by the current bloom image (0 = none);
        #: moves when an image's rename lands.
        self.snapshot_records = 0
        #: Log record count the last captured image covers: the cadence
        #: counts from here, so it does not depend on when writes land.
        self._captured_records = 0
        #: Images captured (a failed write is taken back at its join).
        self.snapshots_taken = 0
        #: Wall-clock milliseconds the most recent completed image write
        #: (write + fsync + rename, off the serving thread) took.
        self.last_snapshot_ms = 0.0
        self._writer: Optional[threading.Thread] = None
        self._write_error: Optional[BaseException] = None

    # -- logging ---------------------------------------------------------------------
    @property
    def records(self) -> int:
        """Log records appended so far (puts + removes, one per key)."""
        return self.container.records

    def log_insert(self, digest: bytes, value: Any) -> None:
        """Durably record one acknowledged fingerprint insert."""
        self.log_insert_many(((digest, value),))

    def log_insert_many(self, pairs: Iterable[Tuple[bytes, Any]]) -> int:
        """Durably record a batch of acknowledged inserts as one flushed frame."""
        columns = tuple(zip(*pairs))
        if not columns:
            return 0
        keys, values = columns
        self.container.append(OP_PUT, keys, values)
        return len(keys)

    def log_remove_many(self, digests: Sequence[bytes]) -> None:
        """Durably record a batch of removals (a migration hand-off) as one flushed frame."""
        self.container.append(OP_REMOVE, digests)

    # -- snapshots -------------------------------------------------------------------
    def snapshot_due(self) -> bool:
        """Whether enough records accumulated since the last captured image."""
        return (
            self.snapshot_every > 0
            and self.records - self._captured_records >= self.snapshot_every
        )

    def begin_snapshot(self, bloom: Any, entries: int = 0) -> int:
        """Capture the bloom filter's bits and write them in the background.

        The previous write is joined first (one write in flight), then the
        record count, the meta and a copy of the bits are taken on the
        caller's thread -- an action-consistent image, whatever is served
        next.  A thread writes the copy through
        :func:`~repro.storage.snapshot.write_snapshot` (tmp + fsync + rename)
        and drops it when done; ``snapshot_records`` moves only once the
        rename lands.  Returns the record count the image covers.
        """
        self.finish_snapshot()
        records = self.records
        meta = {
            "records": records,
            # bloom.count is insertions performed, not distinct keys (and a
            # clamped estimate for filters built via BloomFilter.union);
            # recovery only ever copies it back, so the distinction is safe.
            "count": bloom.count,
            "num_bits": bloom.num_bits,
            "num_hashes": bloom.num_hashes,
            "entries": entries,
        }
        writer = threading.Thread(
            target=self._write_image, args=(bloom.snapshot_payload(), meta),
            name="bloom-snapshot",
        )
        self._captured_records = records
        self.snapshots_taken += 1
        self._writer = writer
        writer.start()
        return records

    def _write_image(self, payload: bytes, meta: dict) -> None:
        """The background half of a checkpoint; its error waits for the join."""
        started = time.perf_counter()
        try:
            write_snapshot(self.snapshot_path, payload, meta)
        except BaseException as error:  # noqa: BLE001 - re-raised at the join
            self._write_error = error
        else:
            self.snapshot_records = meta["records"]
            self.last_snapshot_ms = (time.perf_counter() - started) * 1e3

    def finish_snapshot(self) -> None:
        """Wait for the image write in flight, if any, and raise its error.

        A failed write (a full disk, a failed fsync) leaves the previous
        image and ``snapshot_records`` as they were, and is taken back from
        the cadence: the next due check captures again.
        """
        writer = self._writer
        if writer is None:
            return
        writer.join()
        self._writer = None
        error, self._write_error = self._write_error, None
        if error is not None:
            self._captured_records = self.snapshot_records
            self.snapshots_taken -= 1
            raise error

    def take_snapshot(self, bloom: Any, entries: int = 0, store: Optional[Any] = None) -> int:
        """Checkpoint the bloom filter's bits and wait for the image to land.

        :meth:`begin_snapshot` + :meth:`finish_snapshot`: a failed write
        raises here with the previous image and its count intact.
        ``store`` is accepted and ignored: the log already is the store's
        image, and ``bench/replay.py`` -- the pinned instrument -- still
        passes it.  Returns the record count the image covers.
        """
        del store
        records = self.begin_snapshot(bloom, entries)
        self.finish_snapshot()
        return records

    # -- recovery --------------------------------------------------------------------
    def recover_into(self, node: Any) -> RecoveryReport:
        """Rebuild ``node``'s store and bloom filter from disk.

        ``node`` must expose ``store`` (an
        :class:`~repro.storage.hashstore.SSDHashStore`), ``bloom`` (a
        :class:`~repro.storage.bloom.BloomFilter`), and ``node_id`` -- i.e.
        a freshly constructed or freshly killed hash node.  One pass over
        the log's frames fills the store.
        With a valid image the bloom filter is restored by bulk copy and
        only the keys logged after it are re-added; an image that is
        missing, corrupt, of another geometry or ahead of the log means
        every live key is re-hashed (cold replay).
        """
        self.finish_snapshot()
        started = time.perf_counter()
        report = RecoveryReport(node_id=getattr(node, "node_id", ""))
        discard_staged(self.snapshot_path)
        frames = self.container.replay()  # (re)scans: record counts are final
        report.truncated_bytes = self.container.truncated_bytes
        report.records = self.records

        bloom = node.bloom
        snapshot_records = 0
        try:
            meta, payload = read_snapshot(self.snapshot_path)
        except SnapshotError:
            pass  # no/invalid image: fall back to cold replay
        else:
            covered = int(meta.get("records", 0))
            if (
                meta.get("num_bits") == bloom.num_bits
                and meta.get("num_hashes") == bloom.num_hashes
                and covered <= self.records
            ):
                bloom.restore_payload(payload, int(meta.get("count", 0)))
                snapshot_records = covered
                report.snapshot_loaded = True
                report.snapshot_bytes = len(payload)

        store = node.store
        # Puts logged after the image, for the bloom.  Removes are skipped
        # (bloom bits cannot be unset); duplicate puts are idempotent.
        tail: List[bytes] = []
        index = 0
        for op, keys, values in frames:
            if op == OP_PUT:
                store.fill(keys, values)
                if report.snapshot_loaded and index + len(keys) > snapshot_records:
                    tail.extend(keys[max(snapshot_records - index, 0):])
            else:
                for key in keys:
                    store.remove(key)
            index += len(keys)
        report.entries = len(store)
        replay = tail if report.snapshot_loaded else list(store.keys())
        bloom.add_many(replay)
        report.replayed = len(replay)
        self.snapshot_records = self._captured_records = snapshot_records
        report.wall_seconds = time.perf_counter() - started
        return report

    def close(self) -> None:
        """Wait for the image write in flight, then close the backing file."""
        try:
            self.finish_snapshot()
        finally:
            self.container.close()

    def __enter__(self) -> "NodePersistence":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()
