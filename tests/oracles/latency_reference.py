"""The sorted-list latency sample, kept as the reference model of ``LatencyTally``.

The simulator's percentile rule was first written as a function over an
already sorted list of samples (below, unchanged), fed by a bounded
reservoir.
``repro.simulation.stats.LatencyTally`` now keeps a value -> count dict and
reads the same rule off the sample those counts imply; this model keeps
every sample as a list element, expanding a weighted add into that many
copies, so ``tests/test_latency_tally_differential.py`` can hold the two to
the same count, percentiles and (up to rounding) mean.
"""

from __future__ import annotations

import math
from typing import Iterable, List


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already *sorted* list."""
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return sorted_values[lower]
    weight = position - lower
    return sorted_values[lower] * (1.0 - weight) + sorted_values[upper] * weight


class ListLatencies:
    """Every sample as one list element."""

    def __init__(self) -> None:
        self.values: List[float] = []

    def add(self, value: float, count: int = 1) -> None:
        self.values.extend([value] * count)

    def add_many(self, values: Iterable[float]) -> None:
        self.values.extend(values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return math.fsum(self.values) / len(self.values) if self.values else 0.0

    def percentile(self, q: float) -> float:
        return percentile(sorted(self.values), q)
