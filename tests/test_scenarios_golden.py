"""Golden-output equivalence: every preset renders a pinned table and metrics.

The ``<preset>.txt`` files under ``tests/golden/`` were generated at tiny
scales by the code as it stood *before* the refactor that added them (the
paper figures before the scenario API, the disruption experiments before
their five replay loops became one driver).  Each preset, driven purely
through a declarative spec, must render the byte-identical table, and draw
it again from its JSON metrics alone.

A table prints only some of a run's metrics, so ``<preset>.metrics.json``
pins all of them: every key a sweep or a caller may read, at every depth.
Keys, ints, strings and bools match exactly; floats match to a relative
1e-12, since Python 3.12's ``sum()`` of floats rounds differently from
3.10's and 3.11's.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

from repro.analysis.reporting import render
from repro.scenarios import get_preset, run_scenario, spec_for

GOLDEN_DIR = Path(__file__).parent / "golden"

# The benchmark harness (a package at the repository root) owns the pinned
# full-size figure5 throughputs; they are imported, not copied.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)
from bench.sim import NODES, PINNED_VIRTUAL_FPS  # noqa: E402

#: preset name -> the spec overrides matching the golden file's parameters.
GOLDEN_CASES = {
    "figure1": {"node_counts": [1, 2], "rates": [20_000, 100_000], "requests": 2_000},
    "figure5": {"node_counts": [1, 2], "batch_sizes": [1, 128], "scale": 0.0002},
    "figure6": {"num_nodes": 4, "scale": 0.002},
    "table1": {"scale": 0.003},
    "generational": {
        "initial_chunks": 2_000,
        "generations": 4,
        "modify_fraction": 0.05,
        "growth_fraction": 0.01,
        "num_nodes": 4,
    },
    "tier_ablation": {"scale": 0.0005},
    "batch_tradeoff": {"batch_sizes": [1, 128], "scale": 0.0002},
    "scaling_ablation": {"scale": 0.004},
    "failover": {"scale": 0.0005, "num_nodes": 4, "replication_factor": 2},
    "elasticity": {"scale": 0.0005},
    "failover_timed": {"scale": 0.0005},
    "churn_timed": {"scale": 0.0005},
    "restart": {"scale": 0.0005},
}

#: Rows that report host wall-clock time and so differ run to run; the
#: value is masked on both sides before comparing (``restart`` only).
_WALL_CLOCK_ROW = re.compile(r"^( *recovery wall ms) .*$", re.MULTILINE)


#: Metrics of host wall-clock time, masked the same way (``restart`` only).
_WALL_CLOCK_METRICS = ("recovery_wall_ms",)


def golden_text(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


def golden_metrics(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.metrics.json").read_text(encoding="utf-8"))


def json_metrics(result) -> dict:
    """``result``'s metrics as its JSON carries them, wall-clock values masked."""
    metrics = json.loads(result.to_json())["metrics"]
    for key in _WALL_CLOCK_METRICS:
        if key in metrics:
            metrics[key] = "<wall-clock>"
    return metrics


def assert_same_metrics(actual, golden, path="metrics"):
    if isinstance(golden, float) and isinstance(actual, float):
        assert math.isclose(actual, golden, rel_tol=1e-12), f"{path}: {actual!r} != {golden!r}"
        return
    assert type(actual) is type(golden), f"{path}: {actual!r} != {golden!r}"
    if isinstance(golden, dict):
        assert sorted(actual) == sorted(golden), path
        for key in golden:
            assert_same_metrics(actual[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert len(actual) == len(golden), path
        for index, (item, pinned) in enumerate(zip(actual, golden)):
            assert_same_metrics(item, pinned, f"{path}[{index}]")
    else:
        assert actual == golden, f"{path}: {actual!r} != {golden!r}"


@pytest.mark.parametrize("preset", sorted(GOLDEN_CASES))
def test_preset_render_matches_pre_refactor_output(preset):
    result = run_scenario(spec_for(preset, **GOLDEN_CASES[preset]))
    rendered, golden = (
        _WALL_CLOCK_ROW.sub(r"\1 <wall-clock>", text)
        for text in (result.render() + "\n", golden_text(preset))
    )
    assert rendered == golden
    assert_same_metrics(json_metrics(result), golden_metrics(preset))


@pytest.mark.parametrize("preset", sorted(GOLDEN_CASES))
def test_table_renders_from_the_json_metrics_alone(preset):
    """A run's JSON redraws its table: the layout reads nothing but ``metrics``."""
    result = run_scenario(spec_for(preset, **GOLDEN_CASES[preset]))
    metrics = json.loads(result.to_json())["metrics"]
    rendered, golden = (
        _WALL_CLOCK_ROW.sub(r"\1 <wall-clock>", text)
        for text in (render(get_preset(preset).table, metrics) + "\n", golden_text(preset))
    )
    assert rendered == golden


@pytest.mark.parametrize("leg", sorted(PINNED_VIRTUAL_FPS[1]), ids=lambda leg: f"b{leg[0]}")
def test_figure5_bench_legs_reproduce_the_pinned_virtual_throughput(leg):
    """``sim_figure5``'s seed-1 legs, exactly as the benchmark runs them."""
    batch, scale = leg
    result = run_scenario("figure5", node_counts=[NODES], batch_sizes=[batch],
                          scale=scale, seed=1)
    assert result.metrics["points"][0]["throughput"] == PINNED_VIRTUAL_FPS[1][leg]
