"""HAProxy-style load balancing policies for the web front-end tier.

The paper's architecture (Figure 2) fronts the web servers with an HTTP load
balancer (HAProxy).  The cluster-facing behaviour we need from it is the
assignment policy -- which web server handles which client request -- so this
module implements round robin behind a policy interface, plus a small
``LoadBalancer`` facade that tracks active connections and per-backend
counters.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence

__all__ = [
    "BalancingPolicy",
    "RoundRobinPolicy",
    "LoadBalancer",
]


class BalancingPolicy(ABC):
    """Strategy interface: pick a backend for an incoming request."""

    @abstractmethod
    def choose(
        self,
        backends: Sequence[str],
        active_connections: Dict[str, int],
        source: Optional[str] = None,
    ) -> str:
        """Return the name of the chosen backend."""


class RoundRobinPolicy(BalancingPolicy):
    """Cycle through backends in order."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def choose(self, backends, active_connections, source=None) -> str:
        if not backends:
            raise ValueError("no backends available")
        return backends[next(self._counter) % len(backends)]


class LoadBalancer:
    """Tracks backends and active connections; delegates choice to a policy."""

    def __init__(self, policy: Optional[BalancingPolicy] = None, name: str = "haproxy") -> None:
        self.policy = policy if policy is not None else RoundRobinPolicy()
        self.name = name
        self._backends: List[str] = []
        self._active: Dict[str, int] = {}
        self._assigned: Dict[str, int] = {}

    # -- backend management -----------------------------------------------------------
    def add_backend(self, backend: str) -> None:
        """Register a backend server."""
        if backend in self._backends:
            raise ValueError(f"backend {backend!r} already registered")
        self._backends.append(backend)
        self._active.setdefault(backend, 0)
        self._assigned.setdefault(backend, 0)

    @property
    def backends(self) -> List[str]:
        return list(self._backends)

    # -- request routing -----------------------------------------------------------------
    def assign(self, source: Optional[str] = None) -> str:
        """Choose a backend for a new request and mark the connection active."""
        backend = self.policy.choose(self._backends, self._active, source)
        self._active[backend] = self._active.get(backend, 0) + 1
        self._assigned[backend] = self._assigned.get(backend, 0) + 1
        return backend

    def release(self, backend: str) -> None:
        """Mark a connection on ``backend`` as finished."""
        if self._active.get(backend, 0) <= 0:
            raise ValueError(f"no active connections on backend {backend!r}")
        self._active[backend] -= 1

    # -- reporting ---------------------------------------------------------------------------
    def active_connections(self, backend: str) -> int:
        return self._active.get(backend, 0)

    def assignments(self) -> Dict[str, int]:
        """Total requests assigned per backend since start."""
        return dict(self._assigned)
