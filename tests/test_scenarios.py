"""Tests for the unified scenario API: specs, sweeps, engine, CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.fault_injection import FaultPlan
from repro.scenarios import (
    ScenarioSpec,
    SpecError,
    SweepGrid,
    UnknownSpecKeyError,
    apply_overrides,
    available_presets,
    coerce_scalar,
    get_preset,
    parse_setting,
    run_scenario,
    run_sweep,
    spec_for,
)
from repro.scenarios.spec import CLUSTER_KEYS

EXPECTED_PRESETS = {
    "figure1",
    "figure5",
    "figure6",
    "table1",
    "generational",
    "tier_ablation",
    "batch_tradeoff",
    "scaling_ablation",
    "ablations",
    "failover",
}


# ------------------------------------------------------------------------- specs
class TestScenarioSpec:
    def test_all_legacy_runners_have_presets(self):
        assert EXPECTED_PRESETS <= set(available_presets())

    def test_json_round_trip(self):
        spec = spec_for(
            "failover",
            replication_factor=3,
            num_nodes=5,
            scale=0.001,
            batch_size=128,
            ram_cache_entries=4096,
            outage_density=0.3,
            failure_rate=0.05,
            seed=9,
        )
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.faults == FaultPlan.rolling_grey(0.3, 0.05)
        assert clone.cluster["replication_factor"] == 3
        assert clone.node["ram_cache_entries"] == 4096
        assert clone.seed == 9

    def test_json_payload_is_plain(self):
        spec = spec_for("figure5", scale=0.001, batch_sizes=[1, 128])
        payload = json.loads(spec.to_json())
        assert payload["preset"] == "figure5"
        assert payload["workload"] == {"scale": 0.001, "batch_sizes": [1, 128]}
        assert "seed" not in payload  # unset seed means "preset default"

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict({"preset": "figure6", "bogus": {}})

    def test_key_aliases(self):
        spec = spec_for("failover", nodes=6, replication=3)
        assert spec.cluster == {"num_nodes": 6, "replication_factor": 3}

    def test_unknown_key_names_the_preset_and_valid_keys(self):
        with pytest.raises(UnknownSpecKeyError) as excinfo:
            spec_for("figure6", batch_size=128)
        message = str(excinfo.value)
        assert "batch_size" in message and "figure6" in message and "scale" in message

    def test_fault_keys_rejected_for_faultless_presets(self):
        with pytest.raises(UnknownSpecKeyError):
            spec_for("figure5", outage_density=0.2)

    def test_removed_cluster_option_is_not_a_spec_key(self):
        # ClusterConfig.partition_bits was validated and read by nothing; with
        # the field gone no preset can offer the key (CLUSTER_KEYS is derived
        # from the dataclass) and setting it fails loudly.
        assert "partition_bits" not in CLUSTER_KEYS
        with pytest.raises(UnknownSpecKeyError):
            spec_for("figure5", partition_bits=32)

    def test_fault_kind_inference_composes(self):
        spec = spec_for("failover", outage_density=0.2)
        assert spec.faults.kind == "rolling_outage"
        spec = apply_overrides(spec, {"failure_rate": 0.1})
        assert spec.faults.kind == "rolling_grey"
        assert spec.faults.outage_density == 0.2 and spec.faults.failure_rate == 0.1

    def test_unknown_preset(self):
        with pytest.raises(SpecError):
            spec_for("figure9")


# ------------------------------------------------------------------------- grids
class TestSweepGrid:
    def test_cartesian_order_and_length(self):
        grid = SweepGrid({"a": [1, 2], "b": ["x", "y", "z"]})
        points = list(grid.points())
        assert len(points) == len(grid) == 6
        assert points[0] == {"a": 1, "b": "x"}
        assert points[-1] == {"a": 2, "b": "z"}

    def test_zip_mode(self):
        grid = SweepGrid({"a": [1, 2], "b": [10, 20]}, mode="zip")
        assert list(grid.points()) == [{"a": 1, "b": 10}, {"a": 2, "b": 20}]

    def test_zip_length_mismatch(self):
        with pytest.raises(SpecError):
            SweepGrid({"a": [1, 2], "b": [10]}, mode="zip")

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError):
            SweepGrid({"a": []})
        with pytest.raises(SpecError):
            SweepGrid({})

    def test_round_trip(self):
        grid = SweepGrid({"replication_factor": [1, 2, 3], "outage_density": [0.1, 0.3]})
        assert SweepGrid.from_dict(grid.to_dict()) == grid

    def test_parse(self):
        grid = SweepGrid.parse(["replication_factor=1,2,3", "outage_density=0.1"])
        assert grid.axes == {"replication_factor": [1, 2, 3], "outage_density": [0.1]}


# ------------------------------------------------------------------- CLI parsing
class TestSettingParsing:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("8", 8),
            ("0.25", 0.25),
            ("true", True),
            ("False", False),
            ("mail-server", "mail-server"),
            ("1e-3", 0.001),
        ],
    )
    def test_coerce_scalar(self, raw, expected):
        assert coerce_scalar(raw) == expected

    def test_parse_setting_scalar_and_list(self):
        assert parse_setting("scale=0.001") == ("scale", 0.001)
        assert parse_setting("batch_sizes=1,128,2048") == ("batch_sizes", [1, 128, 2048])
        assert parse_setting("profiles=web-server,mail-server") == (
            "profiles",
            ["web-server", "mail-server"],
        )

    @pytest.mark.parametrize("raw", ["scale", "=3", "scale=", ""])
    def test_parse_setting_rejects_malformed(self, raw):
        with pytest.raises(SpecError):
            parse_setting(raw)


# ------------------------------------------------------------------------- engine
class TestEngine:
    def test_run_scenario_accepts_name_or_spec(self):
        by_name = run_scenario("table1", scale=0.003)
        by_spec = run_scenario(spec_for("table1", scale=0.003))
        assert by_name.metrics == by_spec.metrics

    def test_identical_specs_reproduce_identical_results(self):
        # The seed-threading regression test: one spec, two runs, equal output.
        spec = spec_for(
            "failover", scale=0.0003, outage_density=0.3, failure_rate=0.05, seed=3
        )
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.metrics == second.metrics
        assert first.render() == second.render()

    def test_seed_changes_the_workload(self):
        base = run_scenario("table1", scale=0.003)
        reseeded = run_scenario("table1", scale=0.003, seed=7)
        assert base.metrics != reseeded.metrics

    def test_metrics_are_json_serializable(self):
        result = run_scenario("generational", initial_chunks=500, generations=3)
        json.dumps(result.to_dict())
        assert result.metrics["fingerprints"] > 0
        assert 0.0 <= result.metrics["duplicate_ratio"] <= 1.0

    def test_validate_rejects_foreign_section_keys(self):
        spec = ScenarioSpec(preset="table1", cluster={"num_nodes": 4})
        with pytest.raises(UnknownSpecKeyError):
            run_scenario(spec)

    def test_composite_ablations_renders_all_three(self):
        result = run_scenario("ablations", scale=0.0008)
        text = result.render()
        assert "Ablation A" in text and "Ablation B" in text and "Ablation C" in text
        assert set(result.metrics) == {
            "tier_ablation",
            "batch_tradeoff",
            "scaling_ablation",
        }


class TestRunSweep:
    @pytest.fixture(scope="class")
    def failover_sweep(self):
        # The ROADMAP sweep in miniature: replication factor x outage density,
        # plus a grey-failure axis point.
        return run_sweep(
            spec_for("failover", scale=0.0003),
            SweepGrid(
                {
                    "replication_factor": [1, 2],
                    "outage_density": [0.3],
                    "failure_rate": [0.0, 0.08],
                }
            ),
        )

    def test_every_point_ran(self, failover_sweep):
        assert len(failover_sweep.runs) == 4
        assert all(run.ok for run in failover_sweep.runs)

    def test_unreplicated_cluster_loses_verdicts(self, failover_sweep):
        by_point = {
            (run.point["replication_factor"], run.point["failure_rate"]): run.metrics
            for run in failover_sweep.runs
        }
        assert by_point[(1, 0.0)]["unserved"] > 0
        assert by_point[(1, 0.0)]["dedup_accuracy"] < 1.0
        assert by_point[(2, 0.0)]["unserved"] == 0
        assert by_point[(2, 0.0)]["dedup_accuracy"] == 1.0

    def test_grey_failure_point_recorded(self, failover_sweep):
        grey = [run for run in failover_sweep.runs if run.point["failure_rate"] > 0]
        assert grey and all(run.metrics["grey_drops"] >= 0 for run in grey)
        # Grey points upgrade the plan to rolling_grey; replicated clusters
        # must still not lose a verdict.
        replicated = next(r for r in grey if r.point["replication_factor"] == 2)
        assert replicated.metrics["dedup_accuracy"] == 1.0

    def test_json_grid_shape(self, failover_sweep):
        payload = failover_sweep.to_dict()
        json.dumps(payload)
        assert payload["preset"] == "failover"
        assert payload["grid"]["axes"]["replication_factor"] == [1, 2]
        assert all("metrics" in run or "error" in run for run in payload["runs"])

    def test_failing_point_is_recorded_not_fatal(self):
        sweep = run_sweep(
            spec_for("failover", scale=0.0003, num_nodes=2),
            SweepGrid({"replication_factor": [2, 3]}),  # 3 > num_nodes: invalid
        )
        by_rep = {run.point["replication_factor"]: run for run in sweep.runs}
        assert by_rep[2].ok
        assert not by_rep[3].ok and "replication" in by_rep[3].error

    def test_strict_mode_raises(self):
        with pytest.raises(ValueError):
            run_sweep(
                spec_for("failover", scale=0.0003, num_nodes=2),
                SweepGrid({"replication_factor": [3]}),
                strict=True,
            )

    def test_unknown_axis_fails_before_running(self):
        with pytest.raises(UnknownSpecKeyError):
            run_sweep(spec_for("failover"), SweepGrid({"warp_factor": [9]}))

    def test_render_lists_axes_and_metrics(self, failover_sweep):
        text = failover_sweep.render()
        assert "replication_factor" in text and "dedup_accuracy" in text


# ---------------------------------------------------------------------------- CLI
class TestScenarioCli:
    def test_run_with_set_and_json(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            ["run", "figure6", "--set", "scale=0.002", "--set", "num_nodes=4",
             "--json", str(out)]
        )
        assert code == 0
        assert "Figure 6" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["spec"]["preset"] == "figure6"
        assert payload["spec"]["workload"] == {"scale": 0.002}
        assert payload["metrics"]["max_deviation_from_even"] < 0.05

    def test_run_bad_key_exits_2(self, capsys):
        code = main(["run", "figure6", "--set", "warp=9"])
        assert code == 2
        assert "warp" in capsys.readouterr().err

    def test_run_missing_preset_exits_2(self, capsys):
        assert main(["run"]) == 2
        assert "preset" in capsys.readouterr().err

    def test_run_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_for("table1", scale=0.003).to_json())
        code = main(["run", "--spec", str(spec_path), "--set", "seed=7"])
        assert code == 0
        assert "Table I" in capsys.readouterr().out

    def test_sweep_json_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep", "failover",
                "--set", "scale=0.0003",
                "--axis", "replication_factor=1,2",
                "--axis", "outage_density=0.3",
                "--json", str(out), "--quiet",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["runs"]) == 2
        assert {run["point"]["replication_factor"] for run in payload["runs"]} == {1, 2}
        assert all("dedup_accuracy" in run["metrics"] for run in payload["runs"])

    def test_sweep_bad_axis_exits_2(self, capsys):
        code = main(["sweep", "failover", "--axis", "warp_factor=1,2"])
        assert code == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_presets_listing(self, capsys):
        assert main(["presets", "-v"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_PRESETS:
            assert name in out

    def test_legacy_experiment_alias(self, capsys):
        assert main(["run", "figure6", "--set", "scale=0.002"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_legacy_experiment_failover_validation(self, capsys):
        code = main(
            ["run", "failover", "--set", "scale=0.0005", "--set", "replication_factor=1"]
        )
        assert code == 2
        assert "replication" in capsys.readouterr().err


# ------------------------------------------------------- analysis.experiments names
class TestDeprecationShims:
    """The experiment modules' ``run_*`` functions are what the presets call."""

    def test_shim_falls_back_for_rich_arguments(self):
        # A profile object, which a declarative spec names instead, goes to
        # the experiment module's own function.
        from repro.analysis.experiments.ablations import run_tier_ablation
        from repro.workloads.profiles import MAIL_SERVER

        result = run_tier_ablation(profile=MAIL_SERVER, scale=0.0005)
        hybrid = next(row for row in result["rows"] if row["design"] == "shhc-hybrid")
        assert hybrid["lookups"] > 0

    def test_get_preset_descriptions(self):
        for name in EXPECTED_PRESETS:
            preset = get_preset(name)
            assert preset.description
            assert "seed" in preset.valid_keys()


# ------------------------------------------------------------------- edge cases
class TestScalarListAndProfileHandling:
    def test_single_profile_string_is_not_iterated_charwise(self):
        # `--set profiles=mail-server` arrives as a bare string, not a list.
        result = run_scenario("table1", scale=0.003, profiles="mail-server")
        assert [row["workload"] for row in result.metrics["rows"]] == ["mail-server"]

    def test_single_batch_size_scalar(self):
        result = run_scenario("batch_tradeoff", batch_sizes=128, scale=0.0002)
        assert [p["batch_size"] for p in result.metrics["points"]] == [128]

    def test_bad_profile_name_is_a_spec_error(self):
        with pytest.raises(SpecError):
            run_scenario("figure6", scale=0.002, profiles="bogus")
        with pytest.raises(SpecError):
            run_scenario("tier_ablation", scale=0.0005, profile="bogus")

    def test_bad_profile_name_via_cli_exits_2(self, capsys):
        assert main(["run", "figure6", "--set", "profiles=bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_registering_a_custom_preset_keeps_builtins_visible(self, monkeypatch):
        from repro.scenarios import Preset, ScenarioResult, engine

        preset = Preset(
            name="_test_custom",
            description="registry regression probe",
            runner=lambda spec: ScenarioResult(spec=spec),
        )
        # What ``register_preset`` does, undone at teardown: the probe leaves
        # the process-wide registry as it found it.
        monkeypatch.setitem(engine._PRESETS, preset.name, preset)
        names = available_presets()
        assert "_test_custom" in names and EXPECTED_PRESETS <= set(names)

    def test_a_failed_catalogue_import_is_raised_again_not_an_empty_registry(self, monkeypatch):
        import sys

        import repro.scenarios
        from repro.scenarios import engine

        catalogue = "repro.scenarios.presets"
        monkeypatch.setattr(engine, "_PRESETS", {})
        monkeypatch.setattr(engine, "_BUILTINS_LOADED", False)
        monkeypatch.delattr(repro.scenarios, "presets", raising=False)
        monkeypatch.setitem(sys.modules, catalogue, None)  # importing it now fails
        for _ in range(2):  # the next call re-raises the real error
            with pytest.raises(ImportError, match=catalogue):
                get_preset("figure5")
        del sys.modules[catalogue]  # the cause is gone: the next call loads it
        assert get_preset("figure5").name == "figure5"
        assert EXPECTED_PRESETS <= set(available_presets())

    def test_outage_plan_with_one_batch_fails_fast(self):
        with pytest.raises(ValueError, match="batch_size"):
            run_scenario(
                "failover", scale=0.0004, batch_size=10**6, outage_density=0.3
            )

    def test_adapter_forwards_only_the_keys_the_spec_set(self):
        """Defaults live in the runner's signature; the adapter restates none."""
        from repro.core.config import HashNodeConfig
        from repro.core.membership import ChurnPlan
        from repro.scenarios.presets import _call

        seen = {}

        def runner(scale=0.5, num_nodes=9, batch_sizes=(1, 2), mix=None, seed=5, **rest):
            seen.update(rest, scale=scale, num_nodes=num_nodes, batch_sizes=batch_sizes, mix=mix, seed=seed)

        _call(runner, ScenarioSpec(preset="figure5"))
        assert seen == {"scale": 0.5, "num_nodes": 9, "batch_sizes": (1, 2), "mix": None, "seed": 5}

        seen.clear()
        _call(
            runner,
            ScenarioSpec(
                preset="elasticity",
                cluster={"num_nodes": 3},
                node={"ram_cache_entries": 64},
                workload={"batch_sizes": 128, "profiles": "mail-server"},
                client={"offered_load": 0.5},
                churn=ChurnPlan.grow(2),
            ),
        )
        assert seen.pop("mix").profiles[0].name == "mail-server"  # built on the runner's seed
        assert seen == {
            "scale": 0.5,
            "num_nodes": 3,
            "batch_sizes": (128,),
            "seed": 5,
            "offered_load": 0.5,
            "node_config": HashNodeConfig(ram_cache_entries=64),
            "churn_plan": ChurnPlan.grow(2),
        }


def test_service_preset_acknowledges_every_fingerprint_and_loses_none():
    """The ``service`` preset boots the live stack (gateway plus one worker
    process per node, on localhost), loads it and audits every ack."""
    metrics = run_scenario("service", num_nodes=1, fingerprints=4000).metrics
    assert metrics["acknowledged"] == metrics["fingerprints"] == 4000
    assert metrics["lost_acknowledged"] == 0
    assert metrics["audit_checked"] > 0
