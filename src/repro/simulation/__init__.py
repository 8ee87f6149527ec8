"""Discrete-event simulation substrate.

This package provides the simulation kernel the rest of the repository is
built on: a simulated clock and event calendar (:mod:`.engine`), generator
based processes (:mod:`.process`), shared resources and queues
(:mod:`.resources`), reproducible random streams (:mod:`.rng`) and
statistics collectors (:mod:`.stats`).
"""

from .engine import Event, ScheduledEvent, SimulationError, Simulator, StopSimulation
from .process import Interrupt, Process, ProcessKilled, run_process
from .resources import Container, Resource, Store
from .rng import RandomStreams, derive_seed, exponential, weighted_choice, zipf_weights
from .stats import (
    Counter,
    LatencyRecorder,
    ReservoirSample,
    SummaryStats,
    TimeWeightedValue,
    histogram,
    percentile,
)

__all__ = [
    "Event",
    "ScheduledEvent",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "run_process",
    "Container",
    "Resource",
    "Store",
    "RandomStreams",
    "derive_seed",
    "exponential",
    "weighted_choice",
    "zipf_weights",
    "Counter",
    "LatencyRecorder",
    "ReservoirSample",
    "SummaryStats",
    "TimeWeightedValue",
    "histogram",
    "percentile",
]
