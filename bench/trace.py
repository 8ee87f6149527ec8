"""In-memory spans recorded from the benchmark's side of each call.

A span is ``(name, trace_id, span_id, parent_id, start_ns, end_ns)``; spans
of one batch share ``trace_id``.  Spans live in a list until :meth:`dump`
writes them as JSON lines when the workload ends.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int, int, int]
now_ns = time.perf_counter_ns


class Tracer:
    """Span sink with an on/off switch the traced runs flip in time slices."""

    def __init__(self, active: bool) -> None:
        #: Whether this run records spans at all (``--trace 1``).
        self.active = active
        #: Whether spans are being recorded right now (slice parity).
        self.on = active
        self.spans: List[Span] = []
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def add(self, name: str, trace_id: int, parent_id: int, start_ns: int, end_ns: int) -> int:
        span_id = self.new_id()
        self.spans.append((name, trace_id, span_id, parent_id, start_ns, end_ns))
        return span_id

    def dump(self, path: str) -> int:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, trace_id, span_id, parent_id, start_ns, end_ns in self.spans:
                handle.write(json.dumps({
                    "name": name, "trace_id": trace_id, "span_id": span_id,
                    "parent_id": parent_id, "start_ns": start_ns, "end_ns": end_ns,
                }) + "\n")
        return len(self.spans)


def self_times(spans: List[Span]) -> Dict[str, Tuple[int, int]]:
    """``{name: (count, self_ns)}``: a span's duration minus the part of it
    its child spans cover (children of one parent do not overlap here)."""
    covered: Dict[int, int] = {}
    for _name, _trace, _span, parent_id, start_ns, end_ns in spans:
        if parent_id:
            covered[parent_id] = covered.get(parent_id, 0) + (end_ns - start_ns)
    totals: Dict[str, Tuple[int, int]] = {}
    for name, _trace, span_id, _parent, start_ns, end_ns in spans:
        count, total = totals.get(name, (0, 0))
        totals[name] = (count + 1, total + (end_ns - start_ns) - covered.get(span_id, 0))
    return totals


class SliceClock:
    """Alternates tracing on/off in short slices and compares their rates.

    Traced and untraced slices interleave on the same service state, so their
    throughputs differ only by what recording spans costs.  The comparison is
    between the *median* slice of each kind: a snapshot stall or a host hiccup
    lands in a few slices of either kind and drops out of both medians.
    """

    def __init__(self, tracer: Tracer, slice_s: float) -> None:
        self.tracer = tracer
        self.slice_ns = int(slice_s * 1e9)
        self.origin_ns: Optional[int] = None
        #: Fingerprints per second of every finished slice: [untraced, traced].
        self.rates: Tuple[List[float], List[float]] = ([], [])
        self._slice = 0
        self._acked = 0

    def start(self) -> None:
        self.origin_ns = now_ns()
        self._slice = self._acked = 0
        self.tracer.on = False

    def tick(self, acked_fps: int = 0) -> None:
        """Credit work to the current slice; close it if its time is up."""
        if self.origin_ns is None:
            return
        index = (now_ns() - self.origin_ns) // self.slice_ns
        if index != self._slice:
            # Slices that saw no tick at all (a stall) are simply absent.
            self.rates[self._slice & 1].append(self._acked / (self.slice_ns / 1e9))
            self._slice = index
            self._acked = 0
            self.tracer.on = bool(index & 1)
        self._acked += acked_fps

    def stop(self) -> None:
        self.origin_ns = None
        self.tracer.on = self.tracer.active

    def overhead_frac(self) -> float:
        """1 - traced fps / untraced fps (median slice of each kind)."""
        untraced, traced = self.rates
        if not untraced or not traced:
            return 0.0
        return 1.0 - statistics.median(traced) / statistics.median(untraced)
