"""Write-ahead log for crash-safe metadata updates.

The simulated cluster does not strictly need durability, but the library is
also usable as a real dedup index; the WAL gives the cluster-side membership
and replication extensions (DESIGN.md ablation C) a recoverable record of
configuration changes, and the node persistence layer its checkpoint
intent/done records.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterator, List, Optional

__all__ = ["WriteAheadLog", "LogRecord"]


class LogRecord(dict):
    """A single WAL entry: a JSON-serialisable dict with ``lsn`` and ``kind``."""

    @property
    def lsn(self) -> int:
        return int(self["lsn"])

    @property
    def kind(self) -> str:
        return str(self["kind"])


class WriteAheadLog:
    """A newline-delimited JSON write-ahead log with checkpoint truncation.

    Records are appended with :meth:`append`, replayed with :meth:`replay`,
    and the log can be truncated up to a checkpoint LSN with
    :meth:`checkpoint`.  Records damaged by a crash (partial final line) are
    ignored during replay.

    ``fsync=True`` forces every append (and checkpoint rewrite) to disk
    before returning, trading throughput for power-loss durability.
    Checkpoint truncation is crash-safe: the surviving records are written to
    a temporary file that is atomically renamed over the log, so a crash at
    any point leaves either the old log or the new one -- never a partially
    truncated file.  A stale temporary file from a crashed checkpoint is
    removed on open (the rename never happened, so the original log is still
    authoritative).
    """

    def __init__(self, path: Optional[str] = None, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self._next_lsn = 1
        self._records: List[LogRecord] = []
        if path is not None:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            stale_temp = path + ".tmp"
            if os.path.exists(stale_temp):
                os.remove(stale_temp)  # checkpoint crashed before the atomic rename
            if os.path.exists(path):
                self._recover()
            self._file = open(path, "a", encoding="utf-8")
        else:
            self._file = None

    def _recover(self) -> None:
        assert self.path is not None
        with open(self.path, "r", encoding="utf-8") as log:
            for line in log:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    break  # truncated tail from a crash
                record = LogRecord(payload)
                self._records.append(record)
                self._next_lsn = max(self._next_lsn, record.lsn + 1)

    # -- writing -----------------------------------------------------------------
    def append(self, kind: str, **payload: Any) -> LogRecord:
        """Append a record of ``kind`` with arbitrary JSON-serialisable payload."""
        record = LogRecord(lsn=self._next_lsn, kind=kind, **payload)
        self._next_lsn += 1
        self._records.append(record)
        if self._file is not None:
            self._file.write(json.dumps(record) + "\n")
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
        return record

    # -- reading -----------------------------------------------------------------
    def replay(self, after_lsn: int = 0) -> Iterator[LogRecord]:
        """Yield records with ``lsn > after_lsn`` in order."""
        for record in self._records:
            if record.lsn > after_lsn:
                yield record

    def __len__(self) -> int:
        return len(self._records)

    @property
    def last_lsn(self) -> int:
        """LSN of the most recent record (0 when empty)."""
        return self._records[-1].lsn if self._records else 0

    # -- maintenance ----------------------------------------------------------------
    def checkpoint(self, up_to_lsn: int) -> int:
        """Drop records with ``lsn <= up_to_lsn``; returns how many were dropped."""
        before = len(self._records)
        self._records = [r for r in self._records if r.lsn > up_to_lsn]
        dropped = before - len(self._records)
        if self._file is not None and dropped:
            self._rewrite()
        return dropped

    def _rewrite(self) -> None:
        assert self.path is not None and self._file is not None
        self._file.close()
        temp_path = self.path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as temp:
            for record in self._records:
                temp.write(json.dumps(record) + "\n")
            temp.flush()
            if self.fsync:
                os.fsync(temp.fileno())
        os.replace(temp_path, self.path)
        self._file = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        """Close the backing file (no-op for in-memory logs)."""
        if self._file is not None and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()
