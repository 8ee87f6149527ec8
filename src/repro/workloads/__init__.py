"""Workload profiles, synthetic trace generation and arrival processes."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".arrival": ("OpenLoopArrivals",),
    ".generations": ("BackupGeneration", "GenerationConfig", "GenerationalWorkload"),
    ".mixer": ("WorkloadMix", "table_i_mix"),
    ".profiles": ("HOME_DIR", "MAIL_SERVER", "TABLE_I_PROFILES", "TIME_MACHINE", "WEB_SERVER",
                  "WorkloadProfile", "profile_by_name"),
    ".traces": ("FingerprintTrace", "TraceGenerator", "TraceStatistics", "measure_trace"),
})
