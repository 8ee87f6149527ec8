"""Backup service gateway: the whole paper architecture behind one facade.

:class:`BackupService` wires together the four tiers of Figure 2 -- clients,
HTTP load balancer, web front-end cluster, the SHHC hash cluster and the
cloud object store -- in *immediate mode*, so applications (and the examples)
can use the complete deduplicating backup service as an ordinary Python
library without running the discrete-event simulator.

:func:`build_simulated_service` builds the same architecture in *simulated
mode* on a given :class:`~repro.simulation.engine.Simulator`; the experiment
runners in :mod:`repro.analysis.experiments` use it for the throughput and
scalability studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.cluster import SHHCCluster
from ..core.config import ClusterConfig
from ..dedup.chunking import Chunker, FixedSizeChunker
from ..network.loadbalancer import LoadBalancer, RoundRobinPolicy
from ..network.topology import BuiltNetwork, ClusterTopology
from ..simulation.engine import Simulator
from ..storage.object_store import CloudObjectStore
from .client import BackupClient
from .upload_plan import UploadPlan
from .webserver import WebFrontEnd

__all__ = ["BackupService", "SimulatedDeployment", "build_simulated_service"]


class BackupService:
    """Immediate-mode deduplicating backup service (full Figure-2 stack)."""

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        num_web_servers: int = 2,
        chunker: Optional[Chunker] = None,
        batch_size: int = 128,
    ) -> None:
        if num_web_servers < 1:
            raise ValueError("num_web_servers must be >= 1")
        self.cluster = SHHCCluster(cluster_config)
        self.object_store = CloudObjectStore()
        self.load_balancer = LoadBalancer(RoundRobinPolicy())
        self.web_servers: Dict[str, WebFrontEnd] = {}
        for index in range(num_web_servers):
            server_id = f"web-{index}"
            self.web_servers[server_id] = WebFrontEnd(server_id, self.cluster)
            self.load_balancer.add_backend(server_id)
        self.chunker = chunker if chunker is not None else FixedSizeChunker(8192)
        self.batch_size = batch_size
        self._clients: Dict[str, BackupClient] = {}

    # -- client lifecycle -----------------------------------------------------------------
    def client(self, client_id: str) -> BackupClient:
        """Get or create the backup client for ``client_id``.

        Each client is pinned to a web server through the load balancer, the
        way an HTTP session would be.
        """
        if client_id not in self._clients:
            backend = self.load_balancer.assign(client_id)
            self._clients[client_id] = BackupClient(
                client_id=client_id,
                frontend=self.web_servers[backend],
                object_store=self.object_store,
                chunker=self.chunker,
                batch_size=self.batch_size,
            )
        return self._clients[client_id]

    def backup(self, client_id: str, data: bytes) -> UploadPlan:
        """Back up ``data`` on behalf of ``client_id``; returns the upload plan."""
        return self.client(client_id).backup(data)

    # -- reporting ------------------------------------------------------------------------
    def stored_fingerprints(self) -> int:
        """Distinct fingerprints known to the hash cluster.

        Replica copies are deduplicated; use :meth:`total_stored_copies` for
        the capacity view.
        """
        return len(self.cluster)

    def total_stored_copies(self) -> int:
        """Stored fingerprint copies across all nodes, replicas included."""
        return self.cluster.total_stored

    def physical_bytes(self) -> int:
        """Bytes actually stored in the cloud back-end."""
        return self.object_store.total_bytes()

    def stats(self) -> dict:
        """One-stop service statistics (cluster + store + front end)."""
        metrics = self.cluster.metrics()
        return {
            "cluster": metrics.as_dict(),
            "storage_distribution": metrics.storage_distribution().fractions(),
            "object_store": self.object_store.stats(),
            "web_servers": {name: server.stats() for name, server in self.web_servers.items()},
        }


@dataclass
class SimulatedDeployment:
    """A fully wired simulated deployment of the backup service."""

    sim: Simulator
    topology: ClusterTopology
    network: BuiltNetwork
    cluster: SHHCCluster
    web_servers: Dict[str, WebFrontEnd]
    load_balancer: LoadBalancer
    object_store: CloudObjectStore


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
    :class:`~repro.frontend.webserver.ClientBatchResponse`), with
    ``LookupReply`` objects built only when a caller asks for ``replies``.

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
        object_store=CloudObjectStore(),
    )
