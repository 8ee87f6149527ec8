"""The simulator's one latency instrument: an exact tally.

Simulated latencies are modelled, so they repeat: a cost-ledger phase at
golden scale holds a few hundred distinct values over tens of thousands
of lookups.  :class:`LatencyTally` therefore keeps every sample exactly,
as a value -> count dict, and reads percentiles off the sample those
counts imply -- no sampling, no bucket error.  The live path's
instrument is :class:`repro.telemetry.Histogram`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, Iterable

__all__ = ["LatencyTally"]


class LatencyTally:
    """Every recorded latency (seconds): a value -> count dict, a count and a total."""

    __slots__ = ("counts", "count", "total")

    def __init__(self) -> None:
        self.counts: Dict[float, int] = {}
        self.count = 0
        self.total = 0.0

    def add(self, value: float, count: int = 1) -> None:
        """Record ``count`` samples of ``value``."""
        counts = self.counts
        counts[value] = counts.get(value, 0) + count
        self.count += count
        self.total += value * count

    def add_many(self, values: Iterable[float]) -> None:
        """Record each of ``values``; the total adds them left to right."""
        counts = self.counts
        total = self.total
        added = 0
        for value in values:
            counts[value] = counts.get(value, 0) + 1
            total += value
            added += 1
        self.total = total
        self.count += added

    @property
    def mean(self) -> float:
        """``total / count`` (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q`` percentile, linearly interpolated between order statistics.

        Exactly the rule on the sorted sample the counts imply: position
        ``q * (count - 1)``, interpolated between its floor and ceiling.
        """
        if not self.count:
            raise ValueError("percentile of an empty tally")
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        values = sorted(self.counts)
        # ends[i]: one past the last 0-based rank that holds values[i].
        ends = list(accumulate(self.counts[value] for value in values))
        position = q * (self.count - 1)
        lower = math.floor(position)
        upper = math.ceil(position)
        low = values[bisect_right(ends, lower)]
        if lower == upper:
            return low
        weight = position - lower
        return low * (1.0 - weight) + values[bisect_right(ends, upper)] * weight
