"""Discrete-event simulation substrate.

This package provides the simulation kernel the rest of the repository is
built on: a simulated clock and event calendar (:mod:`.engine`), the shared
resource callback chains queue on (:mod:`.resources`), reproducible random
streams (:mod:`.rng`) and the exact latency tally (:mod:`.stats`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".engine": ("SimulationError", "Simulator"),
    ".resources": ("Resource",),
    ".rng": ("RandomStreams", "derive_seed"),
    ".stats": ("LatencyTally",),
})
