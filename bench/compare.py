"""Compare two sets of benchmark results, one verdict per row.

    python3 bench/compare.py BASE [BASE ...] --vs CHANGE [CHANGE ...]

Each argument is a ``result.json`` written by a full run, a single
``<workload>.json`` record, or a directory holding such files.  For every
(workload, end-to-end metric) row the tool prints each side's median and
quartiles and one verdict against the bound fixed in ``BENCHMARK.json``:

* ``within bound`` -- the change's median is no worse than the base's by
  more than the bound;
* ``regressed``    -- it is worse by more than the bound;
* ``unresolved``   -- the run-to-run spread (the wider interquartile range,
  as a share of the base median) exceeds the bound and the two sets of runs
  overlap, so the row says nothing either way.

Comparing a commit with itself (A/A) is how the bounds were checked; later
PRs quote this table.  Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, Iterator, List, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench.spec import load_contract, quartiles

Rows = Dict[Tuple[str, str], List[float]]


def _records(path: str) -> Iterator[Dict[str, Any]]:
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            if name.endswith(".json"):
                yield from _records(os.path.join(path, name))
        return
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, dict) and "runs" in document:
        yield from document["runs"]
    elif isinstance(document, dict) and "workload" in document:
        yield document


def collect(paths: List[str], metrics: List[str]) -> Tuple[Rows, Dict[str, List[int]]]:
    """End-to-end values per (workload, metric), and [attempted, failed] per workload."""
    rows: Rows = {}
    failures: Dict[str, List[int]] = {}
    for path in paths:
        for record in _records(path):
            if record.get("trace"):
                continue  # traced runs never supply end-to-end numbers
            workload = record["workload"]
            tally = failures.setdefault(workload, [0, 0])
            tally[0] += int(record["attempted"])
            tally[1] += int(record["failed"]) + (0 if record.get("correct") else 1)
            for name in metrics:
                rows.setdefault((workload, name), []).append(
                    float(record["metrics"][name]["value"]))
    return rows, failures


def verdict(base: List[float], change: List[float], better: str, bound: float) -> Tuple[str, float]:
    """(verdict, relative worsening of the median; positive = worse)."""
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (change_median - base_median) / base_median
    spread = max(base_q3 - base_q1, change_q3 - change_q1) / abs(base_median)
    overlap = min(base) <= max(change) and min(change) <= max(base)
    if spread > bound and overlap:
        return "unresolved", worse
    return ("regressed" if worse > bound else "within bound"), worse


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--vs", nargs="+", required=True, dest="change")
    args = parser.parse_args(argv)
    contract = load_contract()
    declared = {entry["name"]: entry for entry in contract["end_to_end"]}
    base_rows, base_failures = collect(args.base, list(declared))
    change_rows, change_failures = collect(args.change, list(declared))

    regressed = False
    print(f"{'workload':16s} {'metric':14s} {'base median [q1, q3] (n)':>40s} "
          f"{'change median [q1, q3] (n)':>40s} {'worse by':>9s} {'bound':>6s}  verdict")
    for entry in contract["workloads"]:
        workload = entry["name"]
        for name, metric in declared.items():
            base = base_rows.get((workload, name))
            change = change_rows.get((workload, name))
            if not base or not change:
                continue
            outcome, worse = verdict(base, change, metric["better"], metric["bound"])
            regressed |= outcome == "regressed"
            cells = []
            for values in (base, change):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] ({len(values)})")
            print(f"{workload:16s} {name:14s} {cells[0]:>40s} {cells[1]:>40s} "
                  f"{worse:+9.1%} {metric['bound']:6.0%}  {outcome}")
        before = base_failures.get(workload)
        after = change_failures.get(workload)
        if before and after:
            # Any increase in the share of failed operations is a regression.
            grew = after[1] * before[0] > before[1] * after[0]
            regressed |= grew
            print(f"{workload:16s} {'failed/attempted':14s} {f'{before[1]}/{before[0]}':>40s} "
                  f"{f'{after[1]}/{after[0]}':>40s} {'':>9s} {'any':>6s}  "
                  f"{'regressed' if grew else 'within bound'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
