"""Real concurrent serving stack over multi-process hash nodes.

This package promotes the simulated ``frontend/`` + ``network/rpc`` shapes
into an actual deployable service (the ROADMAP's "millions of users" item):

* :mod:`~repro.serving.wire` -- length-prefixed msgpack-or-JSON framing
  shared by every peer (clients, gateway, workers).
* :mod:`~repro.serving.worker` -- one OS process per hash node.  Each worker
  owns a :class:`~repro.core.hash_node.HybridHashNode`, warm-starts its
  shard from its PR-7 persistence directory, and serves digest batches over
  a private TCP socket.
* :mod:`~repro.serving.gateway` -- the asyncio front door: routes
  digest-keyed batches to the owning worker (shared-nothing sharding),
  applies admission control and backpressure (bounded per-node queues,
  ``OVERLOADED`` sheds, max in-flight), supervises/respawns crashed
  workers, exposes live metrics over ``/stats``, and drains gracefully.
* :mod:`~repro.serving.loadgen` -- an open/closed-loop load generator
  simulating thousands of clients pushing millions of fingerprints, with a
  post-run audit that proves no acknowledged fingerprint was lost.

``repro serve`` / ``repro loadtest`` are the CLI entry points; the
``service`` scenario preset runs the full stack in-process and reports
through the standard :class:`~repro.scenarios.result.ScenarioResult`
schema.  See ``docs/serving.md`` for the wire protocol and methodology.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".gateway": ("ServeConfig", "ServiceGateway", "ServingError"),
    ".loadgen": ("LoadtestConfig", "LoadtestReport", "run_loadtest"),
    ".worker": ("WorkerSpec",),
})
