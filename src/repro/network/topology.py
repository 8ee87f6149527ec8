"""Cluster topology description and construction helpers.

A :class:`ClusterTopology` captures the names of every endpoint in a deployed
backup service -- clients, web front-ends, hash nodes -- plus the fabric
parameters, and can materialise the corresponding simulated network (switch +
RPC layer).  Experiments use this to spin up paper-shaped deployments in one
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..simulation.engine import Simulator
from .link import DEFAULT_LINK_LATENCY, GIGABIT_BANDWIDTH
from .rpc import RpcLayer
from .switch import NetworkSwitch

__all__ = ["ClusterTopology", "BuiltNetwork"]


@dataclass
class ClusterTopology:
    """Names and fabric parameters of a backup-service deployment."""

    num_clients: int = 2
    num_web_servers: int = 3
    num_hash_nodes: int = 4
    link_latency: float = DEFAULT_LINK_LATENCY * 2  # two switched hops end-to-end
    bandwidth: float = GIGABIT_BANDWIDTH
    client_prefix: str = "client"
    web_prefix: str = "web"
    hash_prefix: str = "hashnode"

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.num_web_servers < 1:
            raise ValueError("num_web_servers must be >= 1")
        if self.num_hash_nodes < 1:
            raise ValueError("num_hash_nodes must be >= 1")

    # -- name helpers ------------------------------------------------------------------
    @property
    def client_names(self) -> List[str]:
        return [f"{self.client_prefix}-{i}" for i in range(self.num_clients)]

    @property
    def web_server_names(self) -> List[str]:
        return [f"{self.web_prefix}-{i}" for i in range(self.num_web_servers)]

    @property
    def hash_node_names(self) -> List[str]:
        return [f"{self.hash_prefix}-{i}" for i in range(self.num_hash_nodes)]

    @property
    def all_endpoints(self) -> List[str]:
        return self.client_names + self.web_server_names + self.hash_node_names

    # -- construction --------------------------------------------------------------------
    def build_network(self, sim: Simulator) -> "BuiltNetwork":
        """Create the switch and RPC layer with every endpoint attached."""
        switch = NetworkSwitch(
            sim=sim,
            latency=self.link_latency,
            bandwidth=self.bandwidth,
            name="fabric",
        )
        rpc = RpcLayer(switch, sim)
        for endpoint in self.all_endpoints:
            rpc.register_client(endpoint)
        return BuiltNetwork(topology=self, switch=switch, rpc=rpc)


@dataclass
class BuiltNetwork:
    """A materialised network: the switch fabric plus the RPC layer over it."""

    topology: ClusterTopology
    switch: NetworkSwitch
    rpc: RpcLayer
    extras: dict = field(default_factory=dict)
