"""Request arrival processes for throughput experiments.

Figure 1 of the paper injects fingerprint queries at fixed offered rates
(10k-100k requests/second) into clusters of different sizes and reports the
time to finish 100 000 requests -- an *open-loop* injection, provided here.
(Figure 5's closed loop -- two client machines each sending batches
back-to-back -- is :class:`~repro.frontend.client.SimulatedClient`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..simulation.rng import RandomStreams

__all__ = ["OpenLoopArrivals"]


@dataclass
class OpenLoopArrivals:
    """Open-loop arrival times at a fixed offered rate.

    Parameters
    ----------
    rate:
        Offered load in requests per second.
    count:
        Number of requests to generate.
    jitter:
        ``0.0`` gives perfectly periodic (deterministic) arrivals;
        ``1.0`` gives Poisson arrivals; intermediate values blend the two.
    seed:
        Random seed for the stochastic part.
    """

    rate: float
    count: int
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def times(self) -> Iterator[float]:
        """Yield absolute arrival times (seconds), starting at 0."""
        rng = RandomStreams(self.seed).stream("arrivals")
        interval = 1.0 / self.rate
        now = 0.0
        for index in range(self.count):
            if index > 0:
                deterministic = interval
                stochastic = rng.expovariate(self.rate) if self.jitter > 0 else interval
                now += (1.0 - self.jitter) * deterministic + self.jitter * stochastic
            yield now

    @property
    def nominal_duration(self) -> float:
        """Time to inject every request at the offered rate."""
        return self.count / self.rate
