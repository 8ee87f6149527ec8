"""One telemetry layer for the live path: counters, gauges, mergeable histograms.

A :class:`Registry` is what a serving process (gateway or node worker)
keeps instead of ad-hoc attributes and reservoirs.  Its :meth:`~Registry.snapshot`
is a plain JSON-able dict, so it crosses the worker hop inside a ``stats``
frame, and :meth:`~Registry.merge` adds such a snapshot into another
registry -- which is how the gateway builds the fleet view out of its
workers' answers.

Histograms are what makes that view exact.  Every process shares one
table of bucket bounds (:data:`BOUNDS_NS`: 1 us x 2^(k/4), four buckets per
doubling, up to ~100 s), observations are **integer nanoseconds**, and a
histogram is nothing but one integer per bucket plus an integer ``sum_ns``:
merging two is index-wise integer addition, so it is exact, associative
and commutative (float sums are none of those), and a percentile read off
the merged buckets is the percentile of the fleet's pooled observations to
within one bucket (a factor of 2^(1/4), about 19%).  A histogram never
grows: no per-observation memory, nothing to sample.

:func:`event` is the one structured-log call of the live path: one JSON
line on stderr per event.

Stdlib only; imports nothing from the rest of the package.
"""

from __future__ import annotations

import json
import math
import sys
import time
from bisect import bisect_left
from collections import Counter as _Tally
from itertools import accumulate, repeat
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["BOUNDS_NS", "Histogram", "Registry", "event", "render_prometheus"]

#: Inclusive upper bucket bounds in integer nanoseconds, shared by every
#: process: 1 us x 2^(k/4) for k = 0..107 (the last is ~113 s).  Bucket
#: ``i`` holds ``BOUNDS_NS[i - 1] < value <= BOUNDS_NS[i]``; one more
#: bucket past the end (Prometheus' ``+Inf``) takes everything larger.
BOUNDS_NS: Tuple[int, ...] = tuple(round(1000 * 2 ** (k / 4)) for k in range(108))

_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


class Histogram:
    """Fixed-bound log-scale histogram of integer-nanosecond observations."""

    __slots__ = ("counts", "sum_ns")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * (len(BOUNDS_NS) + 1)
        self.sum_ns = 0

    def observe(self, value_ns: int) -> None:
        """Record one observation; out-of-range values land in the end buckets."""
        self.counts[bisect_left(BOUNDS_NS, value_ns)] += 1
        self.sum_ns += value_ns

    def observe_many(self, values_ns: Iterable[int]) -> None:
        """Record many observations; state-identical to looping :meth:`observe`."""
        values_ns = values_ns if isinstance(values_ns, (list, tuple)) else list(values_ns)
        counts = self.counts
        for index, seen in _Tally(map(bisect_left, repeat(BOUNDS_NS), values_ns)).items():
            counts[index] += seen
        self.sum_ns += sum(values_ns)

    @property
    def count(self) -> int:
        return sum(self.counts)

    def quantile(self, fraction: float) -> float:
        """The ``fraction`` quantile in nanoseconds, interpolated inside its bucket.

        The bucket is the one holding the exact (nearest-rank) order
        statistic, so the answer is never off by more than that bucket's
        width; the overflow bucket reports the last bound.  0.0 when empty.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        counts = self.counts
        total = sum(counts)
        if not total:
            return 0.0
        rank = max(1, math.ceil(fraction * total))  # nearest rank, 1-based
        cumulative = list(accumulate(counts))
        index = bisect_left(cumulative, rank)
        lower = BOUNDS_NS[index - 1] if index else 0
        if index == len(BOUNDS_NS):
            return float(lower)
        inside = rank - (cumulative[index] - counts[index])
        return lower + (BOUNDS_NS[index] - lower) * inside / counts[index]

    def summary_us(self) -> Dict[str, float]:
        """``count`` plus ``mean`` / ``p50`` / ``p95`` / ``p99`` in microseconds."""
        total = self.count
        summary: Dict[str, float] = {"count": total, "mean": self.sum_ns / total / 1e3 if total else 0.0}
        for name, fraction in _QUANTILES:
            summary[name] = self.quantile(fraction) / 1e3
        return summary

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able state: non-empty buckets by index, ``count``, ``sum_ns``.

        ``us`` is the derived :meth:`summary_us`, there for whoever reads
        the JSON; :meth:`merge` ignores it.
        """
        return {
            "count": self.count,
            "sum_ns": self.sum_ns,
            "buckets": {str(index): seen for index, seen in enumerate(self.counts) if seen},
            "us": self.summary_us(),
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Add another histogram's :meth:`snapshot` into this one (exact)."""
        counts = self.counts
        for index, seen in snapshot["buckets"].items():
            counts[int(index)] += seen
        self.sum_ns += snapshot["sum_ns"]


class Registry:
    """A process's named counters, gauges, info labels and histograms.

    ``counters``, ``gauges`` and ``info`` are plain dicts, written directly
    by their owner (``registry.counters["x"] += 1`` costs what the bare
    attribute it replaces cost).  Pass the counter names up front so that a
    counter still at zero is reported, not missing.
    """

    def __init__(self, counters: Sequence[str] = ()) -> None:
        self.counters: Dict[str, int] = dict.fromkeys(counters, 0)
        self.gauges: Dict[str, float] = {}
        #: Text facts about this process (``node_id``); never merged.
        self.info: Dict[str, str] = {}
        self.histograms: Dict[str, Histogram] = {}

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created empty on first use)."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        return histogram

    def snapshot(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "info": dict(self.info),
            "histograms": {name: h.snapshot() for name, h in self.histograms.items()},
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Add another process's :meth:`snapshot` into this registry.

        Counters, gauges and histogram buckets add (a merged gauge reads as
        the fleet total: entries, log bytes); ``info`` is per process and
        stays behind.
        """
        for mine, theirs in ((self.counters, snapshot["counters"]), (self.gauges, snapshot["gauges"])):
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0) + value
        for name, histogram in snapshot["histograms"].items():
            self.histogram(name).merge(histogram)

    def render_prometheus(self, prefix: str, labels: Optional[Dict[str, str]] = None) -> str:
        return render_prometheus(prefix, [(labels or {}, self.snapshot())])


def _label_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    escaped = (
        (key, str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"))
        for key, value in labels.items()
    )
    return "{" + ",".join(f'{key}="{value}"' for key, value in escaped) + "}"


def render_prometheus(prefix: str, series: Sequence[Tuple[Dict[str, str], Dict[str, Any]]]) -> str:
    """Prometheus text exposition of labelled registry snapshots under one prefix.

    ``series`` is ``[(labels, snapshot), ...]``: the same metric from
    several processes becomes one metric family with one sample per label
    set.  Counters are ``<prefix>_<name>_total``, gauges ``<prefix>_<name>``,
    info ``<prefix>_info{key="value",...} 1`` and a histogram the usual
    cumulative ``<prefix>_<name>_seconds_bucket{le=...}`` ladder over
    :data:`BOUNDS_NS` (in seconds) ending at ``+Inf``, with ``_sum`` and
    ``_count``.
    """
    lines: List[str] = []

    def names(kind: str) -> List[str]:
        return list(dict.fromkeys(name for _, snapshot in series for name in snapshot[kind]))

    for kind, suffix, family in (("counters", "_total", "counter"), ("gauges", "", "gauge")):
        for name in names(kind):
            metric = f"{prefix}_{name}{suffix}"
            lines.append(f"# TYPE {metric} {family}")
            lines.extend(
                f"{metric}{_label_text(labels)} {snapshot[kind][name]}"
                for labels, snapshot in series if name in snapshot[kind]
            )
    if any(snapshot["info"] for _, snapshot in series):
        lines.append(f"# TYPE {prefix}_info gauge")
        lines.extend(
            f"{prefix}_info{_label_text({**labels, **snapshot['info']})} 1"
            for labels, snapshot in series if snapshot["info"]
        )
    for name in names("histograms"):
        metric = f"{prefix}_{name}_seconds"
        lines.append(f"# TYPE {metric} histogram")
        for labels, snapshot in series:
            histogram = snapshot["histograms"].get(name)
            if histogram is None:
                continue
            buckets = histogram["buckets"]
            running = 0
            for index, bound in enumerate(BOUNDS_NS):
                running += buckets.get(str(index), 0)
                lines.append(f"{metric}_bucket{_label_text({**labels, 'le': repr(bound / 1e9)})} {running}")
            lines.append(f"{metric}_bucket{_label_text({**labels, 'le': '+Inf'})} {histogram['count']}")
            lines.append(f"{metric}_sum{_label_text(labels)} {histogram['sum_ns'] / 1e9!r}")
            lines.append(f"{metric}_count{_label_text(labels)} {histogram['count']}")
    return "\n".join(lines) + "\n"


def event(name: str, **fields: Any) -> None:
    """Emit one structured event: a single JSON line on stderr."""
    record = {"ts": round(time.time(), 6), "event": name, **fields}
    print(json.dumps(record, default=str), file=sys.stderr, flush=True)
