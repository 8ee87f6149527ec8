"""Readings taken from outside the program: ``/proc``, the data dir, the host.

Everything here observes processes by pid; nothing imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from typing import Dict, Iterable, List, Optional

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid) -> Optional[List[bytes]]:
    """``/proc/<pid>/stat`` from the state field (3rd) on; ``None`` once gone.

    The command name may hold spaces and parentheses, so split after its
    closing one: state is [0], ppid [1], utime/stime [11]/[12].
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return None


def cpu_seconds(pid: int) -> float:
    """user+system CPU of one process so far (0.0 once it is gone)."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _TICK if fields else 0.0


def status_mb(pid: int, key: str = "VmHWM") -> float:
    """``VmHWM`` (peak resident) or ``VmRSS`` of one process in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def descendants(root_pid: int) -> List[int]:
    """Live pids whose ancestry leads to ``root_pid`` (excluding it)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        fields = _stat_fields(entry) if entry.isdigit() else None
        if fields:
            parents[int(entry)] = int(fields[1])
    found: List[int] = []
    for pid in parents:
        cursor = pid
        while cursor in parents and cursor != root_pid:
            cursor = parents[cursor]
        if cursor == root_pid and pid != root_pid:
            found.append(pid)
    return found


def alive(pids: Iterable[int]) -> List[int]:
    """The subset of ``pids`` that still runs (zombies do not count)."""
    running = []
    for pid in pids:
        fields = _stat_fields(pid)
        if fields and fields[0] != b"Z":
            running.append(pid)
    return running


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def repro_shm_segments() -> List[str]:
    """Shared-memory segments the program names ``repro-*`` (must be none)."""
    try:
        return sorted(name for name in os.listdir("/dev/shm") if name.startswith("repro-"))
    except OSError:
        return []


def _reference_loop(steps: int) -> int:
    """A fixed pure-Python + hashlib + json loop, the kind of work the program does."""
    payload = {"t": "batch", "id": 7, "d": "ab" * 64, "s": 8192}
    sha1 = hashlib.sha1
    dumps, loads = json.dumps, json.loads
    accumulator = 0
    for index in range(steps):
        accumulator ^= sha1(index.to_bytes(16, "big")).digest()[0]
        if not index & 63:
            accumulator ^= len(loads(dumps(payload))["d"])
    return accumulator


class HostSpeed:
    """Speed of this host, sampled in short bursts interleaved with the work.

    This box runs for minutes at a time about 20% slower than at others, for
    every process alike.  A burst is ~1 ms of the reference loop timed in CPU
    time of the calling thread, so it reads the same slowdown the program
    feels on the same cores at the same moment and is blind to preemption;
    the median burst is the run's host speed (``host.calib_mops``).
    """

    BURST_STEPS = 2000

    def __init__(self) -> None:
        self.rates: List[float] = []

    def burst(self) -> None:
        started = time.thread_time()
        _reference_loop(self.BURST_STEPS)
        elapsed = time.thread_time() - started
        if elapsed > 0:
            self.rates.append(self.BURST_STEPS / elapsed / 1e6)

    def mops(self) -> float:
        """Millions of reference-loop steps per CPU second (median burst)."""
        return statistics.median(self.rates) if self.rates else 0.0
