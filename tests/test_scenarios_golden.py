"""Golden-output equivalence: every preset renders a pinned table.

The files under ``tests/golden/`` were generated at tiny scales by the
code as it stood *before* the refactor that added them (the paper
figures before the scenario API, the disruption experiments before their
five replay loops became one driver).  Each test asserts that the preset
-- driven purely through a declarative spec -- renders the byte-identical
table; the ``run_*`` module functions are checked against the same
goldens, so preset and module provably agree.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

from repro.scenarios import run_scenario, spec_for

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


def golden_text(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("preset", sorted(GOLDEN_CASES))
def test_preset_render_matches_pre_refactor_output(preset):
    result = run_scenario(spec_for(preset, **GOLDEN_CASES[preset]))
    rendered, golden = (
        _WALL_CLOCK_ROW.sub(r"\1 <wall-clock>", text)
        for text in (result.render() + "\n", golden_text(preset))
    )
    assert rendered == golden


def test_legacy_module_functions_match_the_same_goldens():
    """The underlying experiment modules still produce the golden output."""
    from repro.analysis.experiments import ablations, figure6, table1

    assert (
        figure6.run_figure6(num_nodes=4, scale=0.002).render() + "\n"
        == golden_text("figure6")
    )
    assert table1.run_table1(scale=0.003).render() + "\n" == golden_text("table1")
    assert (
        ablations.run_tier_ablation(scale=0.0005).render() + "\n"
        == golden_text("tier_ablation")
    )


@pytest.mark.parametrize("leg", sorted(PINNED_VIRTUAL_FPS[1]), ids=lambda leg: f"b{leg[0]}")
def test_figure5_bench_legs_reproduce_the_pinned_virtual_throughput(leg):
    """``sim_figure5``'s seed-1 legs, exactly as the benchmark runs them."""
    batch, scale = leg
    result = run_scenario("figure5", node_counts=[NODES], batch_sizes=[batch],
                          scale=scale, seed=1)
    assert result.metrics["points"][0]["throughput"] == PINNED_VIRTUAL_FPS[1][leg]
