"""Integration tests for the experiment runners (tiny-scale versions).

What the paper reports -- the shape of every figure and table -- is stated
once, as the presets' named claims (``tests/test_paper_claims.py``); the
tests here check what a runner does besides: every configuration measured,
argument validation, and comparisons across two runs.  Each preset's table
is pinned byte for byte by ``tests/test_scenarios_golden.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments.figure1 import run_figure1
from repro.analysis.experiments.figure5 import run_figure5
from repro.analysis.experiments.generational import run_generational_backup
from repro.analysis.experiments.table1 import run_table1
from repro.scenarios import run_scenario
from repro.workloads.generations import GenerationConfig
from repro.workloads.mixer import table_i_mix


class TestFigure1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure1(node_counts=(1, 2, 4), rates=(20_000, 100_000), requests=2_000)

    def test_every_configuration_measured(self, result):
        assert len(result["points"]) == 6
        assert all(point["execution_time_us"] > 0 for point in result["points"])

    def test_render_mentions_every_cluster_size(self):
        text = run_scenario(
            "figure1", node_counts=[1, 2, 4], rates=[20_000, 100_000], requests=2_000
        ).render()
        for nodes in (1, 2, 4):
            assert f"{nodes} nodes" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            run_figure1(requests=0)


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure5(node_counts=(1, 4), batch_sizes=(1, 128), scale=0.0002)

    def test_all_fingerprints_processed(self, result):
        streams = table_i_mix(seed=0).split_among_clients(2, scale=0.0002)
        assert result["fingerprints"] == sum(len(stream) for stream in streams)
        # Every configuration replayed the same trace, so found the same duplicates.
        assert len({point["duplicates"] for point in result["points"]}) == 1

    def test_render(self):
        text = run_scenario(
            "figure5", node_counts=[1, 4], batch_sizes=[1, 128], scale=0.0002
        ).render()
        assert "Figure 5" in text and "chunk/s" in text
        assert [line.split()[0] for line in text.splitlines()[-2:]] == ["1", "4"]  # servers

    def test_validation(self):
        with pytest.raises(ValueError):
            run_figure5(scale=0.0)


class TestTable1:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_table1(scale=0.0)


class TestAblations:
    def test_generational_backup_small_cache_shifts_hits_to_ssd(self):
        config = GenerationConfig(
            initial_chunks=2_000, generations=3, modify_fraction=0.02, growth_fraction=0.0
        )
        big_cache = run_generational_backup(config=config, num_nodes=2, ram_cache_entries=4_000)
        tiny_cache = run_generational_backup(config=config, num_nodes=2, ram_cache_entries=64)
        big_second, tiny_second = big_cache["rows"][1], tiny_cache["rows"][1]
        assert big_second["ram_hit_ratio"] > tiny_second["ram_hit_ratio"]
        # Correctness is unchanged: the same chunks are recognised as duplicates.
        assert big_second["chunks"] == tiny_second["chunks"]
        assert big_second["redundancy"] == tiny_second["redundancy"]
