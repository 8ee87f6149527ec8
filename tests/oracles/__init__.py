"""Reference models the differential suites compare the data plane against.

These are oracles, not product code: they live under ``tests/`` so ``src/``
carries one implementation per job.

* :mod:`oracles.set_model` -- a dict-and-set model of what a hybrid hash
  node (and a cluster) must answer, independent of how the kernels do it;
* :mod:`oracles.node_reference` -- the node's per-fingerprint Figure-4
  flow (RAM LRU, bloom guard, SSD bucket, insert; costs one page operation
  at a time) the generated kernel is held to, and the per-key replica
  write;
* :mod:`oracles.bloom_model` -- the bloom filter's probe sequence in closed
  form over a set of bit indexes, with its own hash-word derivation;
* :mod:`oracles.bucket_store` -- the SSD store as a list of per-bucket
  dicts, the shape ``SSDHashStore`` had before it became one dict and a
  count column;
* :mod:`oracles.batch_routing` -- each fingerprint grouped under the first
  live node of its own replica set, resolved through the partitioner;
* :mod:`oracles.cluster_reference` -- the per-reply replication the
  cluster's one replica write replaced (``resolve_reply``, the failover
  loop and RPC handler around it, a cluster subclass with both swapped in)
  and the per-reply batch routing path the routed core replaced;
* :mod:`oracles.placement_reference` -- the anti-entropy repair and the
  membership migration as the two walks they were before one placement
  sweep (``ReplicationController.reconcile``) replaced both;
* :mod:`oracles.trace_generator` -- the trace generator's per-position loop
  (``expovariate``, a SHA-1 and a validated ``Fingerprint`` per position);
* :mod:`oracles.resource_link` -- the network link whose port is a
  ``Resource``, with an ``Event`` per grant and per delivery;
* :mod:`oracles.event_path` -- the simulated request path as it waited on
  ``Event``s (generator processes, ``all_of``, event-returning RPC) and
  carried ``LookupReply`` lists, with the process helper it needs.
"""
