"""Shared fixtures for the test suite."""

from __future__ import annotations

from multiprocessing import resource_tracker

import pytest
from resource_probe import Baseline

from repro.core.config import ClusterConfig, HashNodeConfig
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.simulation.engine import Simulator
from repro.workloads.profiles import MAIL_SERVER, WEB_SERVER
from repro.workloads.traces import TraceGenerator


@pytest.fixture(scope="session", autouse=True)
def _resource_tracker_started() -> None:
    """Start multiprocessing's resource tracker once, before any test.

    Its pipe lives as long as the process; started lazily by the first
    test that spawns a process, it would read as that test's leak.
    """
    resource_tracker.ensure_running()


@pytest.fixture(autouse=True)
def _no_leaked_resources(_resource_tracker_started):
    """Fail a test that leaves behind a non-daemon thread, a live child
    process, an open file descriptor or a ``/dev/shm/repro-*`` segment.

    What a test starts may take a moment to wind down after it returns (an
    executor thread, a reaped child), so the check waits up to 2 s for the
    process to settle before it fails the test.
    """
    baseline = Baseline.take()
    yield
    leaks = baseline.settled_leaks(timeout=2.0)
    if leaks:
        pytest.fail("the test leaked " + "; ".join(leaks), pytrace=False)


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def small_node_config() -> HashNodeConfig:
    """Hash-node configuration sized for unit tests."""
    return HashNodeConfig(
        ram_cache_entries=256,
        bloom_expected_items=10_000,
        ssd_buckets=1 << 10,
    )


@pytest.fixture
def small_cluster_config(small_node_config: HashNodeConfig) -> ClusterConfig:
    """Four-node cluster configuration sized for unit tests."""
    return ClusterConfig(num_nodes=4, node=small_node_config)


@pytest.fixture
def fingerprints_1k():
    """1000 fingerprints over 600 identities (so ~400 duplicates)."""
    return [synthetic_fingerprint(i % 600, 8192) for i in range(1000)]


@pytest.fixture
def unique_fingerprints_500():
    """500 distinct fingerprints."""
    return [synthetic_fingerprint(10_000 + i, 4096) for i in range(500)]


@pytest.fixture(scope="session")
def web_server_trace():
    """A small web-server-profile trace shared across tests (read-only)."""
    return TraceGenerator(WEB_SERVER.scaled(0.002), seed=3).materialize()


@pytest.fixture(scope="session")
def mail_server_trace():
    """A small mail-server-profile trace shared across tests (read-only)."""
    return TraceGenerator(MAIL_SERVER.scaled(0.0005), seed=3).materialize()
