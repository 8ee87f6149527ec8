"""Uniform results for scenario runs and sweeps.

Every preset returns a :class:`ScenarioResult`: the spec that produced it
and one flat ``metrics`` mapping in the common schema -- the whole result:
the preset's paper-formatted table is a layout over those metric names
(see :mod:`repro.analysis.reporting`), drawn by :meth:`ScenarioResult.render`.
A :class:`SweepResult` collects one row per grid point and serializes to
the machine-readable JSON grid the CLI emits.

Common metrics schema
---------------------
Presets populate whichever of these apply (all plain JSON values):

``fingerprints``
    Fingerprints (chunks) the run processed.
``throughput``
    Fingerprints per second of (simulated) time.
``mean_latency_us`` / ``p50_latency_us`` / ``p95_latency_us`` / ``p99_latency_us``
    Per-fingerprint service latency, microseconds.
``dedup_accuracy`` / ``duplicate_ratio``
    Verdict quality against the exact oracle, and the duplicate fraction.
``served_from``
    Breakdown of verdict sources: ``{"ram": .., "ssd": .., "new": ..,
    "repair": ..}``.
``read_repairs`` / ``failovers`` / ``replica_inserts`` / ``repaired_copies``
    Replica and repair traffic counters.
``crashes`` / ``recoveries`` / ``unserved`` / ``grey_drops``
    Fault-injection outcome counters.

Preset-specific extras (e.g. ``points`` for a figure's sweep series, or
``moved_fraction_consistent`` for the scaling ablation) ride along under
their own names; consumers that only understand the common schema can
ignore them.

Claims
------
A preset states the paper's findings it reproduces as :class:`Claim`
tuples ``(id, description, predicate)``.  A predicate reads a finished
result -- its ``spec`` and ``metrics`` -- and answers ``(verdict,
observed)``: :data:`HOLDS`, :data:`FAILS`, or :data:`NOT_APPLICABLE` when
the run lacks what the claim compares.  :func:`~repro.scenarios.run_scenario`
records every verdict in :attr:`ScenarioResult.claims`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..analysis.reporting import format_table, render
from .spec import ScenarioSpec, SweepGrid

__all__ = ["Claim", "HOLDS", "FAILS", "NOT_APPLICABLE", "ScenarioResult", "SweepRun",
           "SweepResult"]

HOLDS, FAILS, NOT_APPLICABLE = "holds", "fails", "n/a"


class Claim(NamedTuple):
    """One finding of the paper, checked on every run of its preset."""

    id: str
    description: str
    #: ``ScenarioResult -> (verdict, observed)``.
    predicate: Callable[["ScenarioResult"], Tuple[str, Any]]

    def check(self, result: "ScenarioResult") -> Dict[str, Any]:
        verdict, observed = self.predicate(result)
        return {"verdict": verdict, "observed": observed, "description": self.description}


def _clean_metrics(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """Drop ``None`` values so emitted JSON only carries measured metrics."""
    return {key: value for key, value in metrics.items() if value is not None}


@dataclass
class ScenarioResult:
    """Outcome of one scenario run: spec + uniform metrics."""

    spec: ScenarioSpec
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: The preset's table layout over ``metrics``; set by ``run_scenario``.
    table: Any = None
    #: Claim id -> ``{"verdict", "observed", "description"}``, in the
    #: preset's order; filled in by ``run_scenario``.
    claims: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.metrics = _clean_metrics(self.metrics)

    @property
    def preset(self) -> str:
        return self.spec.preset

    def render(self) -> str:
        """The paper-formatted table/series for this run, drawn from ``metrics``."""
        if self.table is not None:
            return render(self.table, self.metrics)
        rows = sorted(
            (key, value)
            for key, value in self.metrics.items()
            if isinstance(value, (int, float, str))
        )
        return format_table(["metric", "value"], rows, title=f"Scenario: {self.preset}")

    def claim_lines(self) -> List[str]:
        """One line per claim: id, verdict, observed value, description."""
        lines = []
        for claim_id, claim in self.claims.items():
            observed = claim["observed"]
            if isinstance(observed, float):
                observed = f"{observed:.4g}"
            shown = "" if observed is None else f" (observed {observed})"
            lines.append(f"claim {claim_id}: {claim['verdict']}{shown} -- {claim['description']}")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {"spec": self.spec.to_dict(), "metrics": self.metrics, "claims": self.claims}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


@dataclass
class SweepRun:
    """One grid point: the axis values applied, and metrics or an error."""

    point: Dict[str, Any]
    metrics: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"point": self.point}
        if self.error is None:
            payload["metrics"] = self.metrics
        else:
            payload["error"] = self.error
        return payload


#: Preferred column order for the sweep summary table; only columns some
#: run actually reports are shown.
_SUMMARY_METRICS = (
    "throughput",
    "dedup_accuracy",
    "mean_latency_us",
    "p95_latency_us",
    "unserved",
    "grey_drops",
    "moved_fraction",
    "replica_copies",
    "read_repairs",
    "failovers",
    "crashes",
)


@dataclass
class SweepResult:
    """All grid points of one sweep over a base spec."""

    base: ScenarioSpec
    grid: SweepGrid
    runs: List[SweepRun] = field(default_factory=list)

    @property
    def preset(self) -> str:
        return self.base.preset

    @property
    def failed(self) -> List[SweepRun]:
        return [run for run in self.runs if not run.ok]

    def render(self) -> str:
        """Axis columns plus the headline common metrics, one row per point."""
        axis_names = list(self.grid.axes)
        shown = [
            name
            for name in _SUMMARY_METRICS
            if any(name in run.metrics for run in self.runs)
        ]
        rows = []
        for run in self.runs:
            row = [run.point.get(name, "") for name in axis_names]
            if run.ok:
                row += [run.metrics.get(name, "") for name in shown]
            else:
                row += [f"error: {run.error}"] + [""] * (len(shown) - 1 if shown else 0)
            rows.append(row)
        return format_table(
            axis_names + shown,
            rows,
            title=f"Sweep: {self.preset} ({len(self.runs)} points)",
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "preset": self.preset,
            "base_spec": self.base.to_dict(),
            "grid": self.grid.to_dict(),
            "runs": [run.to_dict() for run in self.runs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
