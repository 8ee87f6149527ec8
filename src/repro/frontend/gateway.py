"""The simulated backup service: the whole paper architecture on one fabric.

:func:`build_simulated_service` wires together the lookup tiers of
Figure 2 -- clients, HTTP load balancer, web front-end cluster and the SHHC
hash cluster -- on a given :class:`~repro.simulation.engine.Simulator`; the
experiment runners in :mod:`repro.analysis.experiments` use it for the
throughput and scalability studies.  A library backup (real files, no simulator) is
:class:`~repro.dedup.archive.DirectoryArchiver` over an
:class:`~repro.core.cluster.SHHCCluster`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.cluster import SHHCCluster
from ..core.config import ClusterConfig
from ..network.loadbalancer import LoadBalancer, RoundRobinPolicy
from ..network.topology import BuiltNetwork, ClusterTopology
from ..simulation.engine import Simulator
from .webserver import WebFrontEnd

__all__ = ["SimulatedDeployment", "build_simulated_service"]


@dataclass
class SimulatedDeployment:
    """A fully wired simulated deployment of the backup service."""

    sim: Simulator
    topology: ClusterTopology
    network: BuiltNetwork
    cluster: SHHCCluster
    web_servers: Dict[str, WebFrontEnd]
    load_balancer: LoadBalancer


def build_simulated_service(
    sim: Simulator,
    cluster_config: Optional[ClusterConfig] = None,
    num_clients: int = 2,
    num_web_servers: int = 3,
    topology: Optional[ClusterTopology] = None,
) -> SimulatedDeployment:
    """Construct the simulated Figure-2 deployment on ``sim``.

    Every tier is attached to the same switched fabric: clients call web
    servers, web servers call hash nodes, and all transfers pay the modelled
    network cost.  Each request is a chain of callbacks on ``sim`` (the
    client's lane, the web server's fan-out and gather, the node's CPU and
    SSD holds), and verdicts travel as tier columns
    (:class:`~repro.core.protocol.BatchLookupReply`,
    :class:`~repro.frontend.webserver.ClientBatchResponse`).

    The deployment schedules no faults: a web server routes each batch
    around hash nodes already marked down (``cluster.mark_down`` before
    dispatch) and, with ``replication_factor > 1``, the node's RPC handler
    applies replica propagation and read repair per new verdict.  Scheduled
    crashes, grey failures and the control-plane tax are replayed in
    immediate mode (``analysis/experiments/replay.py``); see docs/failover.md.
    """
    config = cluster_config if cluster_config is not None else ClusterConfig()
    topo = topology if topology is not None else ClusterTopology(
        num_clients=num_clients,
        num_web_servers=num_web_servers,
        num_hash_nodes=config.num_nodes,
        hash_prefix=config.node_name_prefix,
    )
    network = topo.build_network(sim)
    cluster = SHHCCluster(config, sim=sim)
    cluster.register_services(network.rpc)

    load_balancer = LoadBalancer(RoundRobinPolicy())
    web_servers: Dict[str, WebFrontEnd] = {}
    for server_id in topo.web_server_names:
        server = WebFrontEnd(server_id, cluster, rpc=network.rpc)
        server.register()
        web_servers[server_id] = server
        load_balancer.add_backend(server_id)

    return SimulatedDeployment(
        sim=sim,
        topology=topo,
        network=network,
        cluster=cluster,
        web_servers=web_servers,
        load_balancer=load_balancer,
    )
