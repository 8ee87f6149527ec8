#!/usr/bin/env python
"""Check a gateway's ``GET /metrics`` body: valid Prometheus text, exact fleet merge.

Reads the exposition text on stdin and fails (exit 1, one line per
finding) unless

* every sample belongs to a family announced by a ``# TYPE`` line;
* every histogram series (one per label set) has strictly increasing
  ``le`` bounds, cumulative (non-decreasing) ``_bucket`` values, and ends
  at ``le="+Inf"`` with the value of its ``_count``;
* every ``shhc_fleet_*`` histogram equals the sum of the ``shhc_worker_*``
  series of the same name, bucket for bucket and in ``_count`` -- the
  gateway merges worker registries by integer addition, so this is ``==``,
  not "close to".

Usage (CI's ``serve-smoke``; ``tests/test_serving.py`` calls :func:`check`)::

    curl -s localhost:7411/metrics | python tools/check_metrics.py
"""

from __future__ import annotations

import re
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
_SUFFIXES = ("_bucket", "_sum", "_count", "_total")

Labels = Tuple[Tuple[str, str], ...]


def parse(text: str):
    """``(types, samples)``: ``{family: type}`` and ``[(name, labels dict, value)]``."""
    types: Dict[str, str] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split()
            types[family] = kind
        elif line and not line.startswith("#"):
            match = _SAMPLE.match(line)
            if match is None:
                raise ValueError(f"not a Prometheus sample line: {line!r}")
            name, labels, value = match.groups()
            samples.append((name, dict(_LABEL.findall(labels or "")), float(value)))
    return types, samples


def _family(name: str, types: Dict[str, str]) -> str:
    for suffix in _SUFFIXES:
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return name


def check(text: str) -> List[str]:
    """Human-readable findings; empty means the body passes."""
    types, samples = parse(text)
    findings = [f"{name}: no # TYPE line announces it"
                for name, _labels, _value in samples if _family(name, types) not in types]
    #: (family, labels without ``le``) -> [(le, cumulative count)] in file order.
    ladders: Dict[Tuple[str, Labels], List[Tuple[float, float]]] = defaultdict(list)
    counts: Dict[Tuple[str, Labels], float] = {}
    for name, labels, value in samples:
        family = _family(name, types)
        if types.get(family) != "histogram":
            continue
        if name.endswith("_bucket"):
            bound = labels.pop("le")
            ladders[family, tuple(sorted(labels.items()))].append(
                (float("inf") if bound == "+Inf" else float(bound), value))
        elif name.endswith("_count"):
            counts[family, tuple(sorted(labels.items()))] = value
    for (family, labels), ladder in ladders.items():
        where = f"{family}{dict(labels) or ''}"
        bounds = [bound for bound, _ in ladder]
        values = [value for _, value in ladder]
        if bounds != sorted(set(bounds)):
            findings.append(f"{where}: le bounds are not strictly increasing")
        if values != sorted(values):
            findings.append(f"{where}: bucket values are not cumulative")
        if bounds[-1] != float("inf") or values[-1] != counts.get((family, labels)):
            findings.append(f"{where}: the ladder does not end at +Inf == _count")
    for (family, labels), ladder in ladders.items():
        if not family.startswith("shhc_fleet_"):
            continue
        twin = "shhc_worker_" + family[len("shhc_fleet_"):]
        parts = [[value for _, value in other]
                 for (name, _), other in ladders.items() if name == twin]
        if not parts or [sum(column) for column in zip(*parts)] != [value for _, value in ladder]:
            findings.append(f"{family}: not the bucket-wise sum of {len(parts)} {twin} series")
        if counts[family, labels] != sum(counts[key] for key in counts if key[0] == twin):
            findings.append(f"{family}_count: not the sum of the {twin}_count series")
    if not any(family.startswith("shhc_fleet_") for family, _ in ladders):
        findings.append("no shhc_fleet_* histogram in the body")
    return findings


def main() -> int:
    text = sys.stdin.read()
    findings = check(text)
    for finding in findings:
        print(f"FAIL {finding}")
    if not findings:
        types, samples = parse(text)
        print(f"ok: {len(samples)} samples in {len(types)} families; fleet histograms == sum of workers")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
