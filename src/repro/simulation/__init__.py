"""Discrete-event simulation substrate.

This package provides the simulation kernel the rest of the repository is
built on: a simulated clock and event calendar (:mod:`.engine`), generator
based processes (:mod:`.process`), the shared resource they queue on
(:mod:`.resources`), reproducible random streams (:mod:`.rng`) and
statistics collectors (:mod:`.stats`).
"""

from .engine import Event, SimulationError, Simulator
from .process import Process, run_process
from .resources import Resource
from .rng import RandomStreams, derive_seed
from .stats import (
    Counter,
    LatencyRecorder,
    ReservoirSample,
    SummaryStats,
    percentile,
)

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "Process",
    "run_process",
    "Resource",
    "RandomStreams",
    "derive_seed",
    "Counter",
    "LatencyRecorder",
    "ReservoirSample",
    "SummaryStats",
    "percentile",
]
