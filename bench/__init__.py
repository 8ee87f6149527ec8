"""SHHC lookup-path benchmark (see ``bench/README.md``).

Five workloads drive the program from outside -- the live serving stack over
loopback TCP, the in-process cluster, and the simulated Figure-5 deployment --
check every verdict against a set-based model, and report end-to-end metrics
(tracing off) or a per-layer budget (tracing on).  ``BENCHMARK.json`` at the
repository root names the command, the workloads and every metric.
"""
