"""Discrete-event simulation substrate.

This package provides the simulation kernel the rest of the repository is
built on: a simulated clock and event calendar (:mod:`.engine`), generator
based processes (:mod:`.process`), the shared resource they queue on
(:mod:`.resources`), reproducible random streams (:mod:`.rng`) and
statistics collectors (:mod:`.stats`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".engine": ("Event", "SimulationError", "Simulator"),
    ".process": ("Process", "run_process"),
    ".resources": ("Resource",),
    ".rng": ("RandomStreams", "derive_seed"),
    ".stats": ("Counter", "LatencyRecorder", "ReservoirSample", "SummaryStats", "percentile"),
})
