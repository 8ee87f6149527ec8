"""Figure 1 -- execution time of 100 000 lookups vs offered rate and cluster size.

The paper's motivation experiment (§II.A) injects SHA-1 fingerprint queries
of 8 KB chunks into hash clusters of 1, 2, 4, 8 and 16 nodes at offered
rates from 10 000 to 100 000 requests per second and reports the time needed
to complete a fixed number of requests.  The headline shape: execution time
is a decreasing function of the number of nodes -- small clusters saturate
(their completion time is set by their capacity), large clusters finish at
the injection-limited time ``requests / rate``.

The runner reproduces the experiment on the simulated deployment: an
open-loop driver sends one-fingerprint requests directly to the owning hash
node (no web tier, like the paper's motivation simulator) and the result
records when the last response arrives.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ...core.cluster import SHHCCluster
from ...core.config import ClusterConfig, HashNodeConfig
from ...core.protocol import BatchLookupRequest
from ...dedup.fingerprint import Fingerprint, synthetic_fingerprint
from ...network.topology import ClusterTopology
from ...simulation.engine import Simulator
from ...workloads.arrival import OpenLoopArrivals
from .replay import default_node_config

__all__ = ["run_figure1"]

#: Offered rates used by the paper's Figure 1 x axis (requests / second).
DEFAULT_RATES = (20_000, 40_000, 60_000, 80_000, 100_000)

#: Cluster sizes plotted in Figure 1.
DEFAULT_NODE_COUNTS = (1, 2, 4, 8, 16)


def _drive_one_configuration(
    num_nodes: int,
    rate: float,
    requests: int,
    node_config: HashNodeConfig,
    chunk_size: int,
    seed: int,
) -> Dict[str, Any]:
    """Run one open-loop injection against a cluster of ``num_nodes``: one point."""
    sim = Simulator()
    config = ClusterConfig(num_nodes=num_nodes, node=node_config)
    cluster = SHHCCluster(config, sim=sim)
    topology = ClusterTopology(
        num_clients=1,
        num_web_servers=1,
        num_hash_nodes=num_nodes,
        hash_prefix=config.node_name_prefix,
    )
    network = topology.build_network(sim)
    cluster.register_services(network.rpc)

    fingerprints: Sequence[Fingerprint] = [
        synthetic_fingerprint(seed * 1_000_000_000 + index, chunk_size) for index in range(requests)
    ]
    completion = {"done": 0, "last_time": 0.0}

    def _on_reply(_reply) -> None:
        completion["done"] += 1
        completion["last_time"] = sim.now

    def _send(fingerprint: Fingerprint) -> None:
        owner = cluster.partitioner.owner(fingerprint)
        request = BatchLookupRequest(fingerprints=[fingerprint], client_id="driver")
        network.rpc.call(
            source="client-0",
            destination=owner,
            payload=request,
            payload_bytes=request.payload_bytes,
            on_response=_on_reply,
        )

    arrivals = OpenLoopArrivals(rate=rate, count=requests, jitter=0.0, seed=seed)
    for arrival_time, fingerprint in zip(arrivals.times(), fingerprints):
        sim.schedule_at(arrival_time, _send, fingerprint)

    sim.run()
    if completion["done"] != requests:
        raise RuntimeError(
            f"figure 1 run lost requests: {completion['done']}/{requests} completed"
        )
    execution_time = completion["last_time"]
    return {
        "nodes": num_nodes,
        "offered_rate": rate,
        # The paper's y axis unit, and the requests completed per second of
        # simulated time.
        "execution_time_us": execution_time * 1e6,
        "achieved_rate": requests / execution_time if execution_time > 0 else 0.0,
    }


def run_figure1(
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    rates: Sequence[float] = DEFAULT_RATES,
    requests: int = 20_000,
    node_config: Optional[HashNodeConfig] = None,
    chunk_size: int = 8192,
    seed: int = 1,
) -> Dict[str, Any]:
    """Reproduce Figure 1.

    Parameters
    ----------
    node_counts / rates:
        The sweep axes (defaults follow the paper).
    requests:
        Number of lookups per run.  The paper uses 100 000; the default here
        is 20 000 to keep regression runs fast -- execution time scales
        linearly with this value, so the curves' shape is unchanged.
    node_config:
        Hash-node parameters (defaults are the calibrated ones).

    Returns the ``figure1`` preset's metrics, one of ``points`` per
    (cluster size, rate).
    """
    if requests < 1:
        raise ValueError("requests must be >= 1")
    config = node_config if node_config is not None else default_node_config(requests)
    points = [
        _drive_one_configuration(num_nodes, rate, requests, config, chunk_size, seed)
        for num_nodes in node_counts
        for rate in rates
    ]
    return {
        "fingerprints": requests,
        "points": points,
        "throughput": max((point["achieved_rate"] for point in points), default=None),
    }
