"""Golden-output equivalence: each ported preset vs its legacy runner.

The files under ``tests/golden/`` were generated by the pre-refactor
``run_*`` runners at tiny scales.  Each test asserts that the scenario
preset -- driven purely through a declarative spec -- renders the
byte-identical table, which is the porting contract of the scenario API.
The legacy module-level functions are checked against the same goldens, so
preset, shim and module all provably agree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenarios import run_scenario, spec_for

GOLDEN_DIR = Path(__file__).parent / "golden"

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
}


def golden_text(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("preset", sorted(GOLDEN_CASES))
def test_preset_render_matches_pre_refactor_output(preset):
    result = run_scenario(spec_for(preset, **GOLDEN_CASES[preset]))
    assert result.render() + "\n" == golden_text(preset)


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


def test_deprecated_shims_match_the_same_goldens():
    """The names re-exported by analysis.experiments render the same goldens."""
    from repro.analysis.experiments import run_figure6, run_scaling_ablation

    assert run_figure6(num_nodes=4, scale=0.002).render() + "\n" == golden_text("figure6")
    assert run_scaling_ablation(scale=0.004).render() + "\n" == golden_text("scaling_ablation")
