"""Table I -- workload characteristics.

The paper characterises its four fingerprint traces by total fingerprints,
percentage of redundant content, and mean distance between occurrences of
the same fingerprint.  The reproduction generates each synthetic trace at a
configurable scale and reports the published (scaled) target next to what
the generator actually produced, which is how EXPERIMENTS.md records the
paper-vs-measured comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ...workloads.profiles import TABLE_I_PROFILES, WorkloadProfile
from ...workloads.traces import TraceGenerator, TraceStatistics
from ..reporting import format_table

__all__ = ["Table1Row", "Table1Result", "run_table1"]


@dataclass(frozen=True)
class Table1Row:
    """Target (published, scaled) vs measured statistics for one workload."""

    workload: str
    target_fingerprints: int
    target_redundancy: float
    target_distance: float
    measured: TraceStatistics

    @property
    def redundancy_error(self) -> float:
        """Absolute error in the redundancy fraction."""
        return abs(self.measured.redundancy - self.target_redundancy)


@dataclass
class Table1Result:
    """All four Table I rows (or whichever profiles were requested)."""

    scale: float
    rows: List[Table1Row] = field(default_factory=list)

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            table_rows.append(
                [
                    row.workload,
                    row.measured.fingerprints,
                    f"{row.target_redundancy * 100:.0f}%",
                    f"{row.measured.redundancy * 100:.1f}%",
                    round(row.target_distance),
                    round(row.measured.mean_duplicate_distance),
                ]
            )
        return format_table(
            ["workload", "fingerprints", "target %red", "measured %red", "target dist", "measured dist"],
            table_rows,
            title=f"Table I: workload characteristics (scale={self.scale})",
        )


def run_table1(
    scale: float = 0.01,
    profiles: Optional[Sequence[WorkloadProfile]] = None,
    seed: int = 42,
) -> Table1Result:
    """Generate each workload at ``scale`` and measure its statistics."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    selected = list(profiles) if profiles is not None else TABLE_I_PROFILES
    result = Table1Result(scale=scale)
    for profile in selected:
        scaled = profile.scaled(scale) if scale != 1.0 else profile
        trace = TraceGenerator(scaled, seed=seed).materialize()
        result.rows.append(
            Table1Row(
                workload=profile.name,
                target_fingerprints=scaled.fingerprints,
                target_redundancy=scaled.redundancy,
                target_distance=scaled.duplicate_distance,
                measured=trace.statistics(),
            )
        )
    return result
