"""Scenario wrapper for the real serving stack (gateway + worker processes).

Unlike every other experiment in this package, nothing here is simulated:
``run_service`` boots an actual :class:`~repro.serving.gateway.ServiceGateway`
on an ephemeral port with one OS process per hash node, drives it with the
:mod:`~repro.serving.loadgen` client pool inside the same event loop, and
folds what the clients *measured* (not what a model predicted) into the
standard scenario metrics schema.  It is the bridge between the simulator's
`service` story and the deployable one: the same preset/sweep tooling, real
sockets and processes underneath.
"""

from __future__ import annotations

import asyncio
import dataclasses
import tempfile
from typing import Any, Dict, Optional

from ...core.config import NODE_BLOOM_ITEMS
from ...serving.gateway import ServeConfig, ServiceGateway
from ...serving.loadgen import LoadtestConfig, run_loadtest_async

__all__ = ["run_service"]


async def _run_stack(serve_config: ServeConfig,
                     load_config: LoadtestConfig) -> Dict[str, Any]:
    """Boot the gateway, run the load test against it, and report what the clients saw."""
    gateway = ServiceGateway(serve_config)
    await gateway.start()
    try:
        load_config = dataclasses.replace(load_config, port=gateway.port)
        report = await run_loadtest_async(load_config)
    finally:
        await gateway.close()
    return {
        "num_nodes": serve_config.num_nodes,
        "clients": load_config.clients,
        "pipeline": load_config.pipeline,
        "fingerprints": report.offered_fingerprints,
        "acknowledged": report.acked_fingerprints,
        "new_fingerprints": report.new_fingerprints,
        "duplicate_fingerprints": report.duplicate_fingerprints,
        "throughput": report.throughput_fps,
        "wall_seconds": report.wall_seconds,
        "p50_latency_us": report.latency_us.get("p50", 0.0),
        "p99_latency_us": report.latency_us.get("p99", 0.0),
        "sheds": report.sheds,
        "shed_rate": report.sheds / report.offered_batches if report.offered_batches else 0.0,
        "retries": report.retries,
        "unavailable": report.unavailable,
        "failed_batches": report.failed_batches,
        "kills_sent": report.kills_sent,
        "worker_restarts": report.worker_restarts,
        "audit_checked": report.audit_checked,
        "lost_acknowledged": report.lost_acknowledged,
    }


def run_service(
    num_nodes: int = 4,
    clients: int = 8,
    pipeline: int = 4,
    batch_size: int = 256,
    fingerprints: int = 50_000,
    duplicate_fraction: float = 0.25,
    arrival_rate_fps: float = 0.0,
    kill_node: Optional[str] = None,
    kill_after_fraction: float = 0.25,
    burst_batches: int = 0,
    snapshot_every: int = 100_000,
    fsync: bool = False,
    max_queue: int = 64,
    max_inflight: int = 512,
    node_config: Optional[Dict[str, Any]] = None,
    data_dir: Optional[str] = None,
    audit: bool = True,
    seed: int = 17,
) -> Dict[str, Any]:
    """Boot the service, load it, audit it, tear it down.

    Each worker's bloom filter is sized for ``NODE_BLOOM_ITEMS``, as
    ``repro serve`` sizes it; ``node_config`` overrides apply on top.
    Returns the ``service`` preset's metrics.
    """

    def _go(directory: Optional[str]) -> Dict[str, Any]:
        serve_config = ServeConfig(
            port=0,
            num_nodes=num_nodes,
            node_config={"bloom_expected_items": NODE_BLOOM_ITEMS, **(node_config or {})},
            data_dir=directory,
            fsync=fsync,
            snapshot_every=snapshot_every,
            max_queue=max_queue,
            max_inflight=max_inflight,
        )
        load_config = LoadtestConfig(
            clients=clients,
            pipeline=pipeline,
            batch_size=batch_size,
            fingerprints=fingerprints,
            duplicate_fraction=duplicate_fraction,
            arrival_rate_fps=arrival_rate_fps,
            seed=seed,
            kill_node=kill_node,
            kill_after_fraction=kill_after_fraction,
            burst_batches=burst_batches,
            audit=audit,
        )
        return asyncio.run(_run_stack(serve_config, load_config))

    if data_dir is not None:
        return _go(data_dir)
    with tempfile.TemporaryDirectory(prefix="repro-service-") as tmp:
        return _go(tmp)
