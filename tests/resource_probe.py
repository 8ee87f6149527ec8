"""What a test process holds that a test could leave behind.

``tests/conftest.py`` snapshots these before each test and fails a test
after which any of them is new: a non-daemon thread, a live
``multiprocessing`` child, an open file descriptor (read from
``/proc/self/fd``, so none where ``/proc`` is absent) or a
``/dev/shm/repro-*`` segment.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

SHM_PATTERN = "/dev/shm/repro-*"


def open_fds() -> FrozenSet[Tuple[str, str]]:
    """``(fd, target)`` of every open descriptor, when ``/proc`` lists them."""
    if not os.path.isdir("/proc/self/fd"):
        return frozenset()
    fds = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            fds.add((name, os.readlink(f"/proc/self/fd/{name}")))
        except OSError:  # the listing's own descriptor, closed by now
            pass
    return frozenset(fds)


@dataclass(frozen=True)
class Baseline:
    """What the process held when :meth:`take` ran."""

    threads: FrozenSet[threading.Thread]
    fds: FrozenSet[Tuple[str, str]]
    shm: FrozenSet[str]

    @classmethod
    def take(cls) -> "Baseline":
        return cls(frozenset(threading.enumerate()), open_fds(),
                   frozenset(glob.glob(SHM_PATTERN)))

    def leaks(self) -> List[str]:
        """What the process holds now that it did not hold at the baseline."""
        leaks = [f"thread {thread.name}" for thread in threading.enumerate()
                 if not thread.daemon and thread not in self.threads]
        leaks += [f"child process {child.pid}" for child in multiprocessing.active_children()]
        leaks += [f"fd {fd} -> {target}" for fd, target in sorted(open_fds() - self.fds)]
        leaks += [f"shared memory {path}"
                  for path in sorted(set(glob.glob(SHM_PATTERN)) - self.shm)]
        return leaks

    def settled_leaks(self, timeout: float) -> List[str]:
        """:meth:`leaks` once the process has had up to ``timeout`` seconds
        to wind down what a test started (an executor thread, a reaped
        child); empty as soon as nothing is left."""
        deadline = time.monotonic() + timeout
        while (leaks := self.leaks()) and time.monotonic() < deadline:
            time.sleep(0.01)
        return leaks
