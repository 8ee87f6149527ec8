#!/usr/bin/env python
"""Perf guard: fail when a freshly measured speedup regresses vs. committed.

Compares every ``speedup`` recorded in a fresh
``benchmarks/out/BENCH_hotpath.json`` against the value committed in the
repository's ``BENCH_hotpath.json``.  A fresh speedup below
``floor_ratio`` (default 0.8) of the committed one fails the check, so a
PR that slows a fast path down gets caught at CI time rather than three
PRs later.  Speedups are same-process before/after ratios, so the check
is machine-independent; the 0.8 margin absorbs scheduler noise.

Series present only in the fresh file (newly added benchmarks) pass; a
series that *disappears* fails loudly (the message names the series that
survived), so a leg cannot be silently dropped.  Series that record a
``cpu_count`` (machine-dependent wall-clock legs: ``sweep_wall_clock``)
must still be *present*, but their committed speedup is not compared
across machines -- the benchmark itself enforces their absolute floors
under ``REPRO_BENCH_STRICT`` on capable boxes.

Only each series' headline ``speedup`` is guarded; sub-keys (per-kernel
``*_speedup`` ratios, ``*_ops_per_s`` figures) are informational, so
dropping one with the code it measured needs no change here.

Usage (the CI hotpath job; the benchmark writes only under the git-ignored
``benchmarks/out/``, so the committed file is still the committed file)::

    REPRO_BENCH_SCALE=0.25 python -m pytest benchmarks/test_bench_hotpath.py -q
    python tools/check_bench_floors.py BENCH_hotpath.json benchmarks/out/BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import json
import sys


def check_floors(committed: dict, fresh: dict, floor_ratio: float) -> list:
    """Return a list of human-readable failures (empty = pass)."""
    failures = []
    committed_series = committed.get("series", {})
    fresh_series = fresh.get("series", {})
    for name, entry in committed_series.items():
        if name not in fresh_series:
            available = ", ".join(sorted(fresh_series)) or "(none)"
            failures.append(
                f"{name}: series disappeared from the fresh benchmark -- the "
                f"committed file records it but the fresh run only produced: "
                f"{available}.  Dropping a benchmark leg requires removing it "
                f"from the committed BENCH_hotpath.json in the same change, "
                f"not skipping it silently."
            )
            continue
        recorded = entry.get("speedup")
        if recorded is None:
            continue  # series without a before/after ratio (nothing to guard)
        if "cpu_count" in entry:
            # A series that records its cpu_count declares itself
            # machine-dependent (the parallel-sweep wall clock scales with
            # cores, unlike the same-process before/after ratios), so a
            # committed-value floor would compare different machines.  The
            # benchmark enforces its own absolute floor under
            # REPRO_BENCH_STRICT on boxes with enough cores.
            continue
        floor = floor_ratio * recorded
        measured = fresh_series[name].get("speedup")
        if measured is None:
            failures.append(f"{name}: fresh benchmark lost its 'speedup' field")
        elif measured < floor:
            failures.append(
                f"{name}: speedup {measured:.2f} fell below "
                f"{floor:.2f} (= {floor_ratio} x committed {recorded:.2f})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("committed", help="BENCH_hotpath.json as committed (the repository root's)")
    parser.add_argument("fresh", help="freshly generated benchmarks/out/BENCH_hotpath.json")
    parser.add_argument("--floor-ratio", type=float, default=0.8,
                        help="fraction of the committed speedup that must be met (default 0.8)")
    args = parser.parse_args(argv)
    with open(args.committed, "r", encoding="utf-8") as handle:
        committed = json.load(handle)
    with open(args.fresh, "r", encoding="utf-8") as handle:
        fresh = json.load(handle)
    failures = check_floors(committed, fresh, args.floor_ratio)
    if failures:
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        return 1
    guarded = sorted(
        name
        for name, entry in committed.get("series", {}).items()
        if "speedup" in entry and "cpu_count" not in entry
    )
    print(f"perf floors ok ({args.floor_ratio} x committed) for: {', '.join(guarded)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
