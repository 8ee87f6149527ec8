"""The paper's claims, as each preset states them, hold at a small spec.

Every preset carries named claims (``repro.scenarios.result.Claim``) that
``run_scenario`` checks on its finished metrics.  Each case below runs its
preset once, at a spec small enough for tier-1 at which every claim
applies, and each claim is its own test: a failure names ``case/claim``.
The disruption presets run at their golden specs.
"""

from __future__ import annotations

import inspect
import json
from functools import lru_cache

import pytest

from repro.cli import main
from repro.scenarios import ScenarioResult, get_preset, run_scenario, spec_for
from repro.scenarios.presets import DISRUPTION_REPLICATION_FACTOR
from repro.scenarios.result import FAILS, HOLDS, NOT_APPLICABLE
from test_scenarios_golden import GOLDEN_CASES

_DISRUPTION = ("failover", "elasticity", "failover_timed", "churn_timed", "restart")

#: case -> (preset, spec overrides).
CLAIM_CASES = {
    "figure5": ("figure5", {"scale": 0.0002}),
    "figure1": ("figure1", {"requests": 2_000}),
    "figure6": ("figure6", {"num_nodes": 4, "scale": 0.002}),
    "figure6@8nodes": ("figure6", {"num_nodes": 8, "scale": 0.002}),
    "table1": ("table1", {"scale": 0.003}),
    "generational": ("generational", {"initial_chunks": 2_000, "generations": 7}),
    "tier_ablation": ("tier_ablation", {"scale": 0.0005}),
    "batch_tradeoff": ("batch_tradeoff", {"scale": 0.0002}),
    "scaling_ablation": ("scaling_ablation", {"scale": 0.004}),
    **{name: (name, GOLDEN_CASES[name]) for name in _DISRUPTION},
}

#: Claims known not to hold, with the reason; each is a strict xfail.
KNOWN_FAILING = {
    ("failover_timed", "no_false_verdicts"): (
        "ROADMAP 2(i): run_failover_timed builds its FaultInjector without "
        "ReplicationController.repair as on_recovery, so a recovered primary "
        "answers duplicates it missed while down as new"
    ),
}


def _params():
    for case, (preset, _) in CLAIM_CASES.items():
        for claim in get_preset(preset).claims:
            reason = KNOWN_FAILING.get((case, claim.id))
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
            yield pytest.param(case, claim.id, marks=marks, id=f"{case}/{claim.id}")


@lru_cache(maxsize=None)
def _run(case: str) -> ScenarioResult:
    preset, overrides = CLAIM_CASES[case]
    return run_scenario(spec_for(preset, **overrides))


@pytest.mark.parametrize("case, claim_id", _params())
def test_the_claim_holds(case, claim_id):
    claim = _run(case).claims[claim_id]
    assert claim["verdict"] == HOLDS, claim


# ------------------------------------------------------------------- the machinery
def _figure5_result(cells, **overrides) -> ScenarioResult:
    points = [{"nodes": nodes, "batch_size": batch, "throughput": throughput}
              for (nodes, batch), throughput in cells.items()]
    return ScenarioResult(spec=spec_for("figure5", **overrides), metrics={"points": points})


def _verdicts(preset: str, result: ScenarioResult) -> dict:
    return {claim.id: claim.predicate(result)[0] for claim in get_preset(preset).claims}


def test_a_grid_without_the_compared_cells_is_not_applicable():
    result = _figure5_result({(1, 1): 1_000.0, (2, 1): 2_000.0, (1, 128): 7_000.0,
                              (2, 128): 30_000.0}, node_counts=[1, 2], batch_sizes=[1, 128])
    assert _verdicts("figure5", result) == {
        "batching_gain": FAILS,  # 7x at one node, 15x at two: the smaller counts
        "node_scaling": NOT_APPLICABLE,
        "large_batches_alike": NOT_APPLICABLE,
    }


def test_a_disruption_claim_below_replication_factor_2_is_not_applicable():
    wrong = {"false_uniques": 3, "false_duplicates": 0}
    for factor, verdict in ((1, NOT_APPLICABLE), (2, FAILS), (3, FAILS)):
        spec = spec_for("failover", replication_factor=factor)
        result = ScenarioResult(spec=spec, metrics=wrong)
        assert _verdicts("failover", result) == {"no_false_verdicts": verdict}
    # A spec that leaves the factor out runs at the runners' default, 2.
    assert _verdicts("elasticity", ScenarioResult(spec=spec_for("elasticity"), metrics=wrong)) \
        == {"no_false_verdicts": FAILS}


def test_the_default_replication_factor_is_each_disruption_runners_own():
    from repro.analysis.experiments.control_plane import run_churn_timed, run_failover_timed
    from repro.analysis.experiments.elasticity import run_elasticity
    from repro.analysis.experiments.failover import run_failover

    for runner in (run_failover, run_elasticity, run_failover_timed, run_churn_timed):
        default = inspect.signature(runner).parameters["replication_factor"].default
        assert default == DISRUPTION_REPLICATION_FACTOR, runner.__name__


def test_run_prints_one_line_per_claim_and_writes_them_to_json(tmp_path, capsys):
    path = tmp_path / "claims.json"
    argv = ["run", "generational", "--set", "initial_chunks=2000", "--set", "generations=3",
            "--json", str(path)]
    assert main(argv) == 0
    claims = get_preset("generational").claims
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("claim ")]
    assert [line.split(":")[0] for line in lines] == [f"claim {claim.id}" for claim in claims]
    payload = json.loads(path.read_text())
    assert set(payload["claims"]) == {claim.id for claim in claims}
    assert {entry["verdict"] for entry in payload["claims"].values()} == {HOLDS}
    assert payload["claims"]["cold_first_generation"] == {
        "verdict": HOLDS, "observed": 0.0, "description": claims[0].description,
    }
