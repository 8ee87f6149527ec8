"""Workload profiles, synthetic trace generation and arrival processes."""

from .arrival import OpenLoopArrivals
from .generations import BackupGeneration, GenerationConfig, GenerationalWorkload
from .mixer import WorkloadMix, table_i_mix
from .profiles import (
    HOME_DIR,
    MAIL_SERVER,
    TABLE_I_PROFILES,
    TIME_MACHINE,
    WEB_SERVER,
    WorkloadProfile,
    profile_by_name,
)
from .traces import FingerprintTrace, TraceGenerator, TraceStatistics, measure_trace

__all__ = [
    "OpenLoopArrivals",
    "BackupGeneration",
    "GenerationConfig",
    "GenerationalWorkload",
    "WorkloadMix",
    "table_i_mix",
    "HOME_DIR",
    "MAIL_SERVER",
    "TABLE_I_PROFILES",
    "TIME_MACHINE",
    "WEB_SERVER",
    "WorkloadProfile",
    "profile_by_name",
    "FingerprintTrace",
    "TraceGenerator",
    "TraceStatistics",
    "measure_trace",
]
