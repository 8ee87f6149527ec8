"""The leak probe behind ``tests/conftest.py``'s per-test resource gate.

A gate that never fires shows nothing, so each kind of resource it watches
is leaked here on purpose, seen by :meth:`Baseline.leaks`, released, and
then no longer reported (the gate itself still runs around each test).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest
from resource_probe import Baseline


def _blocked_thread(daemon: bool = False):
    release = threading.Event()
    thread = threading.Thread(target=release.wait, name="probe-blocked", daemon=daemon)
    return thread, release


def test_a_new_non_daemon_thread_is_a_leak_until_it_ends():
    baseline = Baseline.take()
    thread, release = _blocked_thread()
    daemon, release_daemon = _blocked_thread(daemon=True)
    thread.start()
    daemon.start()
    try:
        assert baseline.leaks() == ["thread probe-blocked"]
    finally:
        release.set()
        release_daemon.set()
        thread.join()
        daemon.join()
    assert baseline.leaks() == []


def test_a_live_child_process_is_a_leak_until_it_is_joined():
    baseline = Baseline.take()
    child = multiprocessing.Process(target=time.sleep, args=(30,))
    child.start()
    try:
        assert f"child process {child.pid}" in baseline.leaks()
    finally:
        child.kill()
        child.join()
        child.close()
    assert baseline.leaks() == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists descriptors in /proc")
def test_an_open_descriptor_is_a_leak_until_it_is_closed():
    baseline = Baseline.take()
    read_end, write_end = os.pipe()
    try:
        leaks = baseline.leaks()
        assert len(leaks) == 2
        assert {leak.split()[1] for leak in leaks} == {str(read_end), str(write_end)}
        assert all("pipe:" in leak for leak in leaks)
    finally:
        os.close(read_end)
        os.close(write_end)
    assert baseline.leaks() == []


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_a_repro_shared_memory_segment_is_a_leak_until_it_is_unlinked():
    baseline = Baseline.take()
    path = f"/dev/shm/repro-probe-{os.getpid()}"
    with open(path, "wb"):
        pass
    try:
        assert baseline.leaks() == [f"shared memory {path}"]
    finally:
        os.unlink(path)
    assert baseline.leaks() == []


def test_settled_leaks_waits_for_what_winds_down():
    baseline = Baseline.take()
    thread = threading.Thread(target=time.sleep, args=(0.05,), name="probe-short")
    thread.start()
    assert baseline.settled_leaks(timeout=5.0) == []
    assert not thread.is_alive()
    thread.join()


def test_settled_leaks_reports_what_outlives_the_timeout():
    baseline = Baseline.take()
    thread, release = _blocked_thread()
    thread.start()
    started = time.monotonic()
    try:
        assert baseline.settled_leaks(timeout=0.1) == ["thread probe-blocked"]
        assert time.monotonic() - started >= 0.1
    finally:
        release.set()
        thread.join()
