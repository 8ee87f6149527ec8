"""Network substrate: messages, links, switch fabric, RPC and load balancing."""

from .link import DEFAULT_LINK_LATENCY, GIGABIT_BANDWIDTH, NetworkLink
from .loadbalancer import (
    BalancingPolicy,
    LoadBalancer,
    RoundRobinPolicy,
)
from .message import MESSAGE_HEADER_BYTES, Message
from .rpc import RpcError, RpcLayer
from .switch import NetworkSwitch
from .topology import BuiltNetwork, ClusterTopology

__all__ = [
    "DEFAULT_LINK_LATENCY",
    "GIGABIT_BANDWIDTH",
    "NetworkLink",
    "BalancingPolicy",
    "LoadBalancer",
    "RoundRobinPolicy",
    "MESSAGE_HEADER_BYTES",
    "Message",
    "RpcError",
    "RpcLayer",
    "NetworkSwitch",
    "BuiltNetwork",
    "ClusterTopology",
]
