"""Table I -- workload characteristics.

The paper characterises its four fingerprint traces by total fingerprints,
percentage of redundant content, and mean distance between occurrences of
the same fingerprint.  The reproduction generates each synthetic trace at a
configurable scale and reports the published (scaled) target next to what
the generator actually produced: the paper-vs-measured comparison.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ...workloads.profiles import TABLE_I_PROFILES, WorkloadProfile
from ...workloads.traces import TraceGenerator

__all__ = ["run_table1"]


def run_table1(
    scale: float = 0.01,
    profiles: Optional[Sequence[WorkloadProfile]] = None,
    seed: int = 42,
) -> Dict[str, Any]:
    """Generate each workload at ``scale`` and measure its statistics.

    Returns the ``table1`` preset's metrics: one of ``rows`` per workload,
    its published (scaled) target next to what was measured.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    selected = list(profiles) if profiles is not None else TABLE_I_PROFILES
    rows = []
    for profile in selected:
        scaled = profile.scaled(scale) if scale != 1.0 else profile
        measured = TraceGenerator(scaled, seed=seed).materialize().statistics()
        rows.append({
            "workload": profile.name,
            "fingerprints": measured.fingerprints,
            "target_fingerprints": scaled.fingerprints,
            "target_redundancy": scaled.redundancy,
            "measured_redundancy": measured.redundancy,
            "target_distance": scaled.duplicate_distance,
            "measured_distance": measured.mean_duplicate_distance,
            "redundancy_error": abs(measured.redundancy - scaled.redundancy),
        })
    return {
        "fingerprints": sum(row["fingerprints"] for row in rows),
        "scale": scale,
        "rows": rows,
    }
