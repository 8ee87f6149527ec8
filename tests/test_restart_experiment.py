"""Tests for the kill/restart experiment and the ``restart`` scenario preset."""

from __future__ import annotations

import os

import pytest

from repro.analysis.experiments.restart import RECOVERING_PHASE, run_restart
from repro.scenarios import run_scenario

SCALE = 0.0005  # ~20k fingerprints: big enough for distinct phases, fast enough for CI


class TestRunRestart:
    def test_warm_restart_recovers_with_full_accuracy(self):
        result = run_restart(scale=SCALE, seed=0)
        assert result["dedup_accuracy"] == 1.0
        assert result["acknowledged"] > 0
        assert result["lost_acknowledged"] == 0
        assert result["acknowledged_accuracy"] == 1.0
        assert result["recovery_time_ms"] > 0
        assert result["recovery_wall_ms"] > 0
        assert result["recovered_entries"] > 0
        assert result["snapshot_loaded"] is True
        assert result["kills"] == 1 and result["restarts"] == 1
        assert result["node_recoveries"] == 1
        assert {"kills", "restarts", "node_recoveries"} <= set(result["counters"])
        # All four phases saw traffic.
        for phase in ("warmup", "steady", "degraded", RECOVERING_PHASE):
            assert result[f"{phase}_lookups"] > 0

    def test_cold_restart_replays_full_log_and_charges_more(self):
        warm = run_restart(scale=SCALE, seed=0, warm_restart=True)
        cold = run_restart(scale=SCALE, seed=0, warm_restart=False)
        assert cold["snapshot_loaded"] is False
        assert cold["snapshot_every"] == 0
        assert cold["replayed_records"] == cold["recovered_entries"]  # full replay
        assert warm["replayed_records"] < cold["replayed_records"]
        # The snapshot path must be measurably cheaper on the simulated clock.
        assert warm["recovery_time_ms"] < cold["recovery_time_ms"]
        assert cold["lost_acknowledged"] == 0 and cold["dedup_accuracy"] == 1.0

    def test_deterministic_across_runs(self):
        first = run_restart(scale=SCALE, seed=3)
        second = run_restart(scale=SCALE, seed=3)
        # Everything but the host's wall time of the on-disk rebuild.
        del first["recovery_wall_ms"], second["recovery_wall_ms"]
        assert first == second

    def test_k1_downtime_is_honest_but_loses_nothing_acknowledged(self):
        result = run_restart(scale=SCALE, seed=0, replication_factor=1)
        # With k=1 the victim's shard is unservable while it is down...
        assert result["unserved"] > 0
        assert result["dedup_accuracy"] < 1.0
        # ...but persistence still brings back every acknowledged insert.
        assert result["lost_acknowledged"] == 0
        assert result["acknowledged_accuracy"] == 1.0

    def test_data_dir_keeps_persistence_files(self, tmp_path):
        data_dir = str(tmp_path / "restart-run")
        result = run_restart(scale=SCALE, seed=0, data_dir=data_dir)
        assert result["dedup_accuracy"] == 1.0
        assert sorted(os.listdir(data_dir)) == [
            f"hashnode-{i}" for i in range(result["num_nodes"])
        ]
        victim_dir = os.path.join(data_dir, result["victim"])
        assert "containers.log" in os.listdir(victim_dir)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_restart(scale=SCALE, downtime=0)
        with pytest.raises(ValueError):
            run_restart(scale=SCALE, kill_batch=0)
        with pytest.raises(ValueError):
            run_restart(scale=SCALE, kill_batch=10_000)  # past the last batch
        with pytest.raises(ValueError):
            run_restart(scale=SCALE, snapshot_every=0, warm_restart=True)


class TestRestartPreset:
    def test_preset_metrics_schema(self):
        result = run_scenario("restart", scale=SCALE)
        metrics = result.metrics
        assert metrics["dedup_accuracy"] == 1.0
        assert metrics["lost_acknowledged"] == 0
        assert metrics["acknowledged_accuracy"] == 1.0
        assert metrics["recovery_time_ms"] > 0
        assert metrics["snapshot_loaded"] is True
        assert metrics["kills"] == 1 and metrics["restarts"] == 1
        assert "degraded_p99_latency_us" in metrics
        assert "recovering_p99_latency_us" in metrics
        rendered = result.render()
        assert "recovery time ms" in rendered and "degraded p99" in rendered

    def test_preset_client_knobs(self):
        result = run_scenario(
            "restart",
            scale=SCALE,
            warm_restart=False,
            downtime=3,
            snapshot_every=None,
        )
        metrics = result.metrics
        assert metrics["warm_restart"] is False and metrics["restart_mode"] == "cold"
        assert metrics["restart_batch"] - metrics["kill_batch"] == 3
        assert metrics["snapshot_loaded"] is False

    def test_preset_matches_runner(self):
        via_preset = run_scenario("restart", scale=SCALE, seed=1).metrics
        direct = run_restart(scale=SCALE, seed=1)
        del via_preset["recovery_wall_ms"], direct["recovery_wall_ms"]
        assert via_preset == direct
