"""Figure 5 -- cluster throughput vs number of servers and batch size.

The paper feeds the four mixed Table-I workloads from two client machines
into hybrid hash clusters of 1-4 nodes, with hash queries batched 1, 128 or
2048 per request, and reports throughput in chunks (fingerprints) per
second.  The two findings the reproduction must show:

* batched configurations (128, 2048) are roughly an order of magnitude
  faster than the unbatched one (batch size 1);
* throughput grows with the number of servers, with 128 and 2048 behaving
  similarly at the larger cluster sizes.

The runner deploys the full simulated architecture (clients -> load balancer
-> web front-ends -> hash nodes) and replays the mixed trace closed-loop from
the configured number of clients.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ...core.config import ClusterConfig, HashNodeConfig
from ...frontend.client import SimulatedClient
from ...frontend.gateway import build_simulated_service
from ...simulation.engine import Simulator
from ...workloads.mixer import WorkloadMix, table_i_mix
from .replay import default_node_config

__all__ = ["run_figure5"]

#: Cluster sizes evaluated in the paper's Figure 5.
DEFAULT_NODE_COUNTS = (1, 2, 3, 4)

#: Batch sizes evaluated in the paper's Figure 5.
DEFAULT_BATCH_SIZES = (1, 128, 2048)


def _run_one_configuration(
    num_nodes: int,
    batch_size: int,
    client_streams: Sequence[Sequence],
    node_config: HashNodeConfig,
    num_web_servers: int,
    window: int,
) -> Tuple[int, float, int]:
    """Replay ``client_streams`` once: fingerprints sent, elapsed seconds, duplicates found."""
    sim = Simulator()
    config = ClusterConfig(num_nodes=num_nodes, node=node_config)
    deployment = build_simulated_service(
        sim,
        config,
        num_clients=len(client_streams),
        num_web_servers=num_web_servers,
    )
    clients = [
        SimulatedClient(
            client_id=f"client-{index}",
            rpc=deployment.network.rpc,
            load_balancer=deployment.load_balancer,
            fingerprints=stream,
            batch_size=batch_size,
            window=window,
            sim=sim,
        )
        for index, stream in enumerate(client_streams)
    ]
    for client in clients:
        client.start()
    sim.run()

    return (
        sum(client.stats.fingerprints_sent for client in clients),
        max(client.stats.finished_at for client in clients),
        sum(client.stats.duplicates_found for client in clients),
    )


def _throughput(fingerprints: int, elapsed: float) -> float:
    """Chunks (fingerprints) processed per second of simulated time."""
    return fingerprints / elapsed if elapsed > 0 else 0.0


def run_figure5(
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    scale: float = 0.001,
    num_clients: int = 2,
    num_web_servers: int = 3,
    window: int = 1,
    mix: Optional[WorkloadMix] = None,
    node_config: Optional[HashNodeConfig] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Reproduce Figure 5.

    Parameters
    ----------
    scale:
        Fraction of the full Table-I traces to replay (the full mix is ~42
        million fingerprints; the default replays ~42 thousand, which keeps
        the sweep laptop-sized while leaving every trend intact).
    num_clients / window:
        Client machines and outstanding requests per client; the paper uses
        two clients issuing one batched request at a time.

    Returns the ``figure5`` preset's metrics, one of ``points`` per
    (cluster size, batch size).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    workload = mix if mix is not None else table_i_mix(seed=seed)
    client_streams = workload.split_among_clients(num_clients, scale=scale)
    expected = sum(len(stream) for stream in client_streams)
    config = node_config if node_config is not None else default_node_config(expected)
    points, sent = [], 0
    for num_nodes in node_counts:
        for batch_size in batch_sizes:
            # Every configuration replays the same streams, so `sent` is the same for each.
            sent, elapsed, duplicates = _run_one_configuration(
                num_nodes,
                batch_size,
                client_streams,
                config,
                num_web_servers,
                window,
            )
            points.append({
                "nodes": num_nodes,
                "batch_size": batch_size,
                "throughput": _throughput(sent, elapsed),
                "duplicates": duplicates,
            })
    return {
        "fingerprints": sent,
        "points": points,
        "throughput": max((point["throughput"] for point in points), default=None),
    }
