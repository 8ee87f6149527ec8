"""Handle on the live service: the launcher child, its pids, its teardown."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List

from . import procfs
from .spec import BENCH_DIR, SRC_DIR

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ServiceError(RuntimeError):
    """The launcher did not come up, or left something behind."""


class Service:
    """One gateway + worker fleet booted by ``bench/launcher.py``."""

    def __init__(self, process: subprocess.Popen, port: int, gateway_pid: int) -> None:
        self.process = process
        self.port = port
        self.gateway_pid = gateway_pid
        #: Every worker pid seen so far (respawns add to it), for the
        #: no-survivor check at teardown.
        self.worker_pids: List[int] = []

    @classmethod
    def start(cls, serve_config: Dict[str, Any]) -> "Service":
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "launcher.py"), json.dumps(serve_config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            # Own process group: teardown can sweep gateway + workers at once.
            start_new_session=True,
        )
        ready, _, _ = select.select([process.stdout], [], [], READY_TIMEOUT_S)
        line = process.stdout.readline() if ready else b""
        if not line:
            cls._sweep(process)
            raise ServiceError("launcher printed no ready line")
        message = json.loads(line)
        return cls(process, int(message["port"]), int(message["pid"]))

    def note_workers(self, gateway_stats: Dict[str, Any]) -> List[int]:
        """Worker pids from a gateway ``stats`` frame (current generation)."""
        current = [int(worker["pid"]) for worker in gateway_stats["workers"]]
        for pid in current:
            if pid not in self.worker_pids:
                self.worker_pids.append(pid)
        return current

    def stop(self) -> None:
        """Graceful drain (stdin EOF), then verify nothing survived."""
        process = self.process
        tree = procfs.descendants(process.pid)
        try:
            process.stdin.close()
            process.wait(timeout=STOP_TIMEOUT_S)
        except (subprocess.TimeoutExpired, OSError):
            pass
        finally:
            process.stdout.close()
        deadline = time.monotonic() + 2.0
        watched = set(tree) | set(self.worker_pids) | {process.pid}
        while procfs.alive(watched) and time.monotonic() < deadline:
            time.sleep(0.02)
        survivors = procfs.alive(watched)
        self._sweep(process)
        if survivors:
            raise ServiceError(f"service processes survived the drain: {survivors}")

    @staticmethod
    def _sweep(process: subprocess.Popen) -> None:
        """SIGKILL whatever is left of the launcher's process group."""
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass
