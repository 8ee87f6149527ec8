"""Statistics collectors used across the simulated system.

The collectors are intentionally simple and allocation-light: experiments
record millions of samples (per-request latencies, queue lengths over time),
so the structures keep running aggregates and, when percentiles are needed,
a bounded reservoir sample.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

__all__ = [
    "SummaryStats",
    "ReservoirSample",
    "LatencyRecorder",
    "Counter",
    "percentile",
]


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


@dataclass
class SummaryStats:
    """Running count/mean/variance/min/max (Welford's algorithm)."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    total: float = 0.0

    def add(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Record many samples."""
        for value in values:
            self.add(value)

    @property
    def variance(self) -> float:
        """Sample variance (0 for fewer than two samples)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "SummaryStats") -> "SummaryStats":
        """Return the summary of both collections combined."""
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        merged = SummaryStats()
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        delta = other.mean - self.mean
        merged.mean = self.mean + delta * other.count / merged.count
        merged._m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / merged.count
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view, convenient for report rendering."""
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "total": self.total,
        }


class ReservoirSample:
    """Fixed-size uniform reservoir sample (Vitter's algorithm R).

    Thread-safe: the serving gateway records samples from concurrent
    callbacks while its ``/stats`` endpoint reads percentiles, so every
    mutation and read holds an internal lock.  Single-threaded simulation
    callers pay one uncontended acquire per batch via :meth:`add_many`.
    """

    def __init__(self, capacity: int = 10_000, seed: int = 17) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._seen = 0
        self._values: List[float] = []
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Locks do not pickle (reservoirs cross the sweep process pool);
        # the receiving process gets a fresh one.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _add(self, value: float) -> None:
        """Offer one sample; caller holds the lock."""
        self._seen += 1
        if len(self._values) < self.capacity:
            self._values.append(value)
        else:
            # One C-level random() scaled to the stream length replaces
            # randrange()'s Python-level _randbelow chain; the float
            # quantisation bias is immaterial for streams far below 2**53.
            index = int(self._rng.random() * self._seen)
            if index < self.capacity:
                self._values[index] = value

    def add(self, value: float) -> None:
        """Offer one sample to the reservoir."""
        with self._lock:
            self._add(value)

    def add_many(self, values: Sequence[float]) -> None:
        """Offer many samples; state-identical to looping :meth:`add`.

        While the reservoir has room for the whole batch the samples are
        appended wholesale (no RNG draws happen below capacity, so the RNG
        state is untouched either way).  Once full, an inlined Algorithm R
        loop with hoisted locals makes the exact same draw sequence as
        per-sample :meth:`_add` calls without the per-sample method
        dispatch -- this is the batch lookup path's per-reply sink.
        """
        values = values if isinstance(values, (list, tuple)) else list(values)
        with self._lock:
            retained = self._values
            free = self.capacity - len(retained)
            if len(values) <= free:
                retained.extend(values)
                self._seen += len(values)
                return
            if free > 0:
                retained.extend(values[:free])
                self._seen += free
                values = values[free:]
            seen = self._seen
            capacity = self.capacity
            rand = self._rng.random
            for value in values:
                seen += 1
                index = int(rand() * seen)
                if index < capacity:
                    retained[index] = value
            self._seen = seen

    @property
    def seen(self) -> int:
        """Total samples offered (not just retained)."""
        return self._seen

    def values(self) -> List[float]:
        """Copy of retained samples (unsorted)."""
        with self._lock:
            return list(self._values)

    def percentile(self, fraction: float) -> float:
        """Approximate percentile from the reservoir."""
        with self._lock:
            return percentile(sorted(self._values), fraction)


class LatencyRecorder:
    """Latency statistics: running summary plus a reservoir for percentiles.

    Thread-safe: a lock guards the running summary (the reservoir carries
    its own), so gateway worker tasks can record while a reporter thread
    reads :meth:`as_dict` mid-run without torn Welford state.
    """

    def __init__(self, name: str = "latency", reservoir_size: int = 10_000) -> None:
        self.name = name
        self.summary = SummaryStats()
        self.reservoir = ReservoirSample(reservoir_size)
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        """Record a latency sample (seconds)."""
        with self._lock:
            self.summary.add(value)
        self.reservoir.add(value)

    def record_many(self, values: Sequence[float]) -> None:
        """Record many samples; state-identical to looping :meth:`record`.

        The Welford recurrence runs per value in input order with the same
        operation sequence as :meth:`SummaryStats.add` (bit-identical
        floats), hoisted out of per-call attribute access; the reservoir
        goes through :meth:`ReservoirSample.add_many`.  This is the batch
        lookup path's per-reply latency sink.
        """
        # Materialise one-shot iterables first: the Welford loop below would
        # otherwise exhaust a generator before the reservoir sees it.
        values = values if isinstance(values, (list, tuple)) else list(values)
        with self._lock:
            summary = self.summary
            count = summary.count
            total = summary.total
            mean = summary.mean
            m2 = summary._m2
            minimum = summary.minimum
            maximum = summary.maximum
            for value in values:
                count += 1
                total += value
                delta = value - mean
                mean += delta / count
                m2 += delta * (value - mean)
                if value < minimum:
                    minimum = value
                if value > maximum:
                    maximum = value
            summary.count = count
            summary.total = total
            summary.mean = mean
            summary._m2 = m2
            summary.minimum = minimum
            summary.maximum = maximum
        self.reservoir.add_many(values)

    @property
    def count(self) -> int:
        return self.summary.count

    @property
    def mean(self) -> float:
        return self.summary.mean

    def percentile(self, fraction: float) -> float:
        """Approximate percentile (e.g. ``0.99``) of recorded latencies."""
        return self.reservoir.percentile(fraction)

    def as_dict(self) -> Dict[str, float]:
        with self._lock:
            result = self.summary.as_dict()
        # One snapshot of the reservoir serves all three percentiles.  The
        # extra emptiness check covers a mid-run read racing between the
        # summary and reservoir updates of a concurrent record().
        sample = sorted(self.reservoir.values()) if result["count"] else []
        if sample:
            result.update(
                p50=percentile(sample, 0.50),
                p95=percentile(sample, 0.95),
                p99=percentile(sample, 0.99),
            )
        return result


@dataclass
class Counter:
    """A named group of monotonically increasing counters."""

    values: Dict[str, int] = field(default_factory=dict)

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        self.values[name] = self.values.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.values.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.values)

    def merge(self, other: "Counter") -> "Counter":
        """Return a new counter with both sets of counts summed."""
        merged = Counter(dict(self.values))
        for name, value in other.values.items():
            merged.increment(name, value)
        return merged
