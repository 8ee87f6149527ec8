"""Tests for the elasticity experiment, its preset, and churn-plan specs."""

from __future__ import annotations

import pytest

from repro.analysis.experiments.elasticity import run_elasticity
from repro.core.membership import ChurnPlan
from repro.scenarios import (
    ScenarioSpec,
    SpecError,
    SweepGrid,
    UnknownSpecKeyError,
    run_scenario,
    run_sweep,
    spec_for,
)

SMALL = dict(scale=0.0004, batch_size=128)


class TestChurnPlan:
    def test_round_trips_through_dict(self):
        plan = ChurnPlan.join_leave(6, start=2.0)
        assert ChurnPlan.from_dict(plan.to_dict()) == plan

    def test_rejects_unknown_keys_and_bad_values(self):
        with pytest.raises(ValueError):
            ChurnPlan.from_dict({"kind": "join_leave", "bogus": 1})
        with pytest.raises(ValueError):
            ChurnPlan(kind="oscillate")
        with pytest.raises(ValueError):
            ChurnPlan(events=-1)

    def test_none_plan_produces_no_events(self):
        assert ChurnPlan.none().schedule(100.0) == []
        assert not ChurnPlan.none().has_churn


class TestElasticityRunner:
    def test_churn_free_run_moves_nothing(self):
        result = run_elasticity(churn_plan=ChurnPlan.none(), **SMALL)
        assert result["joins"] == 0 and result["leaves"] == 0
        assert result["entries_moved"] == 0
        assert result["dedup_accuracy"] == 1.0

    def test_replicated_churn_is_lossless_with_replica_traffic(self):
        result = run_elasticity(
            replication_factor=2, churn_plan=ChurnPlan.join_leave(4), **SMALL
        )
        assert result["dedup_accuracy"] == 1.0
        assert result["dedup_errors"] == 0
        assert result["replica_copies"] > 0
        assert result["under_replicated"] == 0 and result["lost"] == 0
        assert result["distinct_fingerprints"] * 2 == result["total_stored"]

    def test_unreplicated_churn_is_lossless_without_replica_traffic(self):
        result = run_elasticity(
            replication_factor=1, churn_plan=ChurnPlan.join_leave(2), **SMALL
        )
        assert result["dedup_accuracy"] == 1.0
        assert result["replica_copies"] == 0
        assert result["primary_moves"] > 0

    def test_grow_and_shrink_change_the_cluster_size(self):
        grown = run_elasticity(churn_plan=ChurnPlan.grow(2), **SMALL)
        assert grown["final_nodes"] == 6 and grown["joins"] == 2
        shrunk = run_elasticity(churn_plan=ChurnPlan.shrink(2), **SMALL)
        assert shrunk["final_nodes"] == 2 and shrunk["leaves"] == 2

    def test_shrink_never_drops_below_two_nodes(self):
        result = run_elasticity(churn_plan=ChurnPlan.shrink(5), **SMALL)
        assert result["final_nodes"] == 2
        assert result["skipped_events"] == 3

    def test_render_reports_the_headline_numbers(self):
        result = run_scenario("elasticity", churn_kind="join_leave", churn_events=2, **SMALL)
        rendered = result.render()
        assert "dedup accuracy" in rendered
        assert "replica copies" in rendered
        assert "churn: " in rendered

    def test_too_short_run_fails_before_working(self):
        with pytest.raises(ValueError, match="too short"):
            run_elasticity(scale=0.00001, batch_size=4096, churn_plan=ChurnPlan.grow(1))


class TestElasticityPreset:
    def test_spec_churn_keys_route_into_the_plan(self):
        spec = spec_for("elasticity", churn_events=6, churn_kind="grow", churn_start=2.0)
        assert spec.churn == ChurnPlan(kind="grow", events=6, start=2.0)
        assert spec.flat()["churn_events"] == 6

    def test_spec_round_trips_with_churn(self):
        spec = spec_for("elasticity", churn_events=4, replication_factor=3)
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec

    def test_churn_keys_rejected_by_other_presets(self):
        with pytest.raises(UnknownSpecKeyError):
            spec_for("failover", churn_events=2)
        with pytest.raises(SpecError):
            run_scenario(ScenarioSpec(preset="table1", churn=ChurnPlan.grow(1)))

    def test_preset_runs_and_emits_uniform_metrics(self):
        result = run_scenario(
            "elasticity", scale=0.0004, batch_size=128, churn_events=2,
            replication_factor=2,
        )
        metrics = result.metrics
        assert metrics["dedup_accuracy"] == 1.0
        assert metrics["replica_copies"] > 0
        assert metrics["joins"] + metrics["leaves"] == 2
        assert metrics["distinct_fingerprints"] <= metrics["total_stored"]
        assert result.to_json()  # serializable

    def test_sweep_grid_matches_acceptance_criteria(self):
        sweep = run_sweep(
            spec_for("elasticity", scale=0.0004, batch_size=128),
            SweepGrid({"replication_factor": [1, 2], "churn_events": [2]}),
            strict=True,
        )
        assert len(sweep.runs) == 2
        by_factor = {run.point["replication_factor"]: run.metrics for run in sweep.runs}
        assert by_factor[1]["dedup_accuracy"] == 1.0
        assert by_factor[1]["replica_copies"] == 0
        assert by_factor[2]["dedup_accuracy"] == 1.0
        assert by_factor[2]["replica_copies"] > 0


class TestElasticityDeterminism:
    """PR 3's determinism guarantee extends to the new surface."""

    def test_same_spec_twice_is_byte_identical(self):
        spec = spec_for(
            "elasticity", scale=0.0004, batch_size=128, churn_events=4,
            replication_factor=2, seed=3,
        )
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.to_json() == second.to_json()
        assert first.render() == second.render()

    def test_seed_changes_the_workload(self):
        base = run_scenario("elasticity", churn_events=2, seed=0, **SMALL)
        reseeded = run_scenario("elasticity", churn_events=2, seed=9, **SMALL)
        assert base.metrics != reseeded.metrics

    def test_sweep_is_byte_identical_across_runs(self):
        spec = spec_for("elasticity", scale=0.0004, batch_size=128)
        grid = SweepGrid({"replication_factor": [1, 2], "churn_events": [2]})
        first = run_sweep(spec, grid, strict=True)
        second = run_sweep(spec, grid, strict=True)
        assert first.to_json() == second.to_json()
