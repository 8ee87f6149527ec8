"""Tests for generational workloads and the CLI."""

from __future__ import annotations

import os

import pytest

from repro.cli import main as cli_main
from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.workloads.generations import GenerationConfig, GenerationalWorkload
from repro.workloads.traces import measure_trace


class TestGenerationalWorkload:
    def test_generation_count_and_sizes(self):
        workload = GenerationalWorkload(
            GenerationConfig(initial_chunks=1000, generations=5, modify_fraction=0.05, growth_fraction=0.02)
        )
        assert len(workload) == 5
        sizes = [len(generation) for generation in workload.generations]
        assert sizes[0] == 1000
        assert all(later >= earlier for earlier, later in zip(sizes, sizes[1:]))

    def test_expected_dedup_ratio_reflects_generations(self):
        workload = GenerationalWorkload(
            GenerationConfig(initial_chunks=1000, generations=5, modify_fraction=0.0, growth_fraction=0.0)
        )
        # Identical full backups: logical = 5x physical.
        assert workload.expected_dedup_ratio() == pytest.approx(5.0)

    def test_fingerprint_stream_measured_redundancy(self):
        config = GenerationConfig(
            initial_chunks=800, generations=3, modify_fraction=0.1, growth_fraction=0.0
        )
        workload = GenerationalWorkload(config)
        stats = measure_trace(workload.fingerprint_stream())
        assert stats.fingerprints == workload.total_chunks()
        assert stats.unique_fingerprints == workload.unique_chunks()

    def test_deterministic_for_same_seed(self):
        a = GenerationalWorkload(GenerationConfig(initial_chunks=300, generations=3, seed=9))
        b = GenerationalWorkload(GenerationConfig(initial_chunks=300, generations=3, seed=9))
        assert [g.identities for g in a.generations] == [g.identities for g in b.generations]

    def test_cluster_sees_expected_cross_generation_redundancy(self):
        config = GenerationConfig(
            initial_chunks=500, generations=4, modify_fraction=0.05, growth_fraction=0.0
        )
        workload = GenerationalWorkload(config)
        cluster = SHHCCluster(
            ClusterConfig(
                num_nodes=4,
                node=HashNodeConfig(ram_cache_entries=4096, bloom_expected_items=100_000),
            )
        )
        results = cluster.lookup_batch(list(workload.fingerprint_stream()))
        duplicates = sum(1 for result in results if result.is_duplicate)
        expected_duplicates = workload.total_chunks() - workload.unique_chunks()
        assert duplicates == expected_duplicates

    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(initial_chunks=0)
        with pytest.raises(ValueError):
            GenerationConfig(generations=0)
        with pytest.raises(ValueError):
            GenerationConfig(modify_fraction=1.5)
        with pytest.raises(ValueError):
            GenerationConfig(growth_fraction=-0.1)


class TestCatalogChunkingResolution:
    def test_recorded_parameters_win(self, tmp_path):
        import json

        from repro.cli import _catalog_chunking

        catalog = tmp_path / "cat.json"
        record = {"strategy": "cdc", "engine": "gear", "average_size": 4096}
        catalog.write_text(json.dumps({"chunking": record}))
        assert _catalog_chunking(str(catalog)) == record

    def test_legacy_catalog_resolves_to_rabin(self, tmp_path):
        # Catalogues written before engine selection existed could only have
        # been chunked by the Rabin implementation; defaulting them to gear
        # would silently destroy dedup against the existing chunk store.
        import json

        from repro.cli import _catalog_chunking

        catalog = tmp_path / "cat.json"
        catalog.write_text(json.dumps({"snapshots": []}))
        assert _catalog_chunking(str(catalog)) == {"engine": "rabin"}

    def test_missing_catalog_resolves_to_empty(self, tmp_path):
        from repro.cli import _catalog_chunking

        assert _catalog_chunking(str(tmp_path / "absent.json")) == {}

    def test_backup_adopts_recorded_size_and_engine(self, tmp_path, capsys):
        import json

        from repro.cli import main as cli

        source = tmp_path / "data"
        source.mkdir()
        (source / "f.bin").write_bytes(os.urandom(40_000))
        catalog = str(tmp_path / "cat.json")
        store = str(tmp_path / "store")
        assert cli(["backup", "--root", str(source), "--catalog", catalog,
                    "--store", store, "--chunk-size", "1024",
                    "--chunk-engine", "rabin"]) == 0
        # Second backup with default flags must adopt 1024/rabin from the
        # catalog: the unchanged file must chunk to the exact same
        # fingerprints (cross-invocation index warm-up is a separate
        # ROADMAP item, so dedup stats are not asserted here).
        assert cli(["backup", "--root", str(source), "--catalog", catalog,
                    "--store", store, "--snapshot", "snap-2"]) == 0
        with open(catalog) as handle:
            payload = json.load(handle)
        recorded = payload["chunking"]
        assert recorded["engine"] == "rabin" and recorded["average_size"] == 1024
        chunks = {
            snap["snapshot_id"]: snap["files"][0]["chunks"]
            for snap in payload["snapshots"]
        }
        assert chunks["snap-1"] == chunks["snap-2"]
        assert len(chunks["snap-1"]) > 10  # really chunked at ~1 KB, not 8 KB


class TestCli:
    def test_experiment_table1(self, capsys):
        exit_code = cli_main(["run", "table1", "--set", "scale=0.002"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table I" in output and "mail-server" in output

    def test_experiment_figure6(self, capsys):
        exit_code = cli_main(["run", "figure6", "--set", "scale=0.002", "--set", "num_nodes=4"])
        assert exit_code == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_experiment_scaling_ablation_titles_its_cluster(self, capsys):
        exit_code = cli_main(
            ["run", "scaling_ablation", "--set", "num_nodes=6", "--set", "scale=0.002"]
        )
        assert exit_code == 0
        assert "scaling a 6-node cluster to 7 nodes" in capsys.readouterr().out

    def test_trace_generation_to_file(self, tmp_path, capsys):
        output_path = str(tmp_path / "trace.txt")
        exit_code = cli_main(
            ["trace", "--workload", "web-server", "--scale", "0.0002", "--output", output_path]
        )
        assert exit_code == 0
        with open(output_path, encoding="utf-8") as trace:
            lines = trace.read().splitlines()
        assert len(lines) > 100
        assert all(len(line) == 40 for line in lines[:10])  # hex SHA-1

    def test_backup_restore_cycle(self, tmp_path, capsys):
        source = tmp_path / "data"
        source.mkdir()
        payload = os.urandom(30_000)
        (source / "file.bin").write_bytes(payload)
        catalog = str(tmp_path / "catalog.json")
        store = str(tmp_path / "chunkstore")

        assert cli_main([
            "backup", "--root", str(source), "--catalog", catalog, "--store", store,
            "--snapshot", "snap-1",
        ]) == 0
        assert "snap-1" in capsys.readouterr().out

        assert cli_main(["snapshots", "--catalog", catalog, "--store", store]) == 0
        assert "snap-1" in capsys.readouterr().out

        target = tmp_path / "restored"
        assert cli_main([
            "restore", "--snapshot", "snap-1", "--target", str(target),
            "--catalog", catalog, "--store", store,
        ]) == 0
        assert (target / "file.bin").read_bytes() == payload

    def test_restore_unknown_snapshot_fails(self, tmp_path, capsys):
        catalog = str(tmp_path / "catalog.json")
        store = str(tmp_path / "chunkstore")
        exit_code = cli_main([
            "restore", "--snapshot", "ghost", "--target", str(tmp_path / "out"),
            "--catalog", catalog, "--store", store,
        ])
        assert exit_code == 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_archive_commands_close_the_chunk_store(self, tmp_path, capsys, monkeypatch):
        from repro.storage.hashstore import FileHashStore

        # Keep every store alive past the command: only a close releases its fd.
        opened = []
        init = FileHashStore.__init__

        def keep(store, *args, **kwargs):
            opened.append(store)
            init(store, *args, **kwargs)

        monkeypatch.setattr(FileHashStore, "__init__", keep)
        source = tmp_path / "data"
        source.mkdir()
        (source / "file.bin").write_bytes(os.urandom(30_000))
        archive = ["--catalog", str(tmp_path / "catalog.json"), "--store", str(tmp_path / "store")]
        for argv in (
            ["backup", "--root", str(source), "--snapshot", "snap-1", *archive],
            ["snapshots", *archive],
            ["restore", "--snapshot", "snap-1", "--target", str(tmp_path / "out"), *archive],
            ["restore", "--snapshot", "ghost", "--target", str(tmp_path / "out"), *archive],
        ):
            before = len(os.listdir("/proc/self/fd"))
            cli_main(argv)
            assert len(os.listdir("/proc/self/fd")) == before, argv
        assert len(opened) == 4

    def test_serve_sizes_each_worker_bloom_like_the_archiver(self, monkeypatch, tmp_path):
        import repro.serving
        from repro.cli import NODE_BLOOM_ITEMS
        from repro.storage.bloom import optimal_parameters

        configs = []

        class Gateway:  # records the config, then refuses to start
            def __init__(self, config, verbose=True):
                configs.append(config)

            async def start(self):
                raise repro.serving.ServingError("not started")

        monkeypatch.setattr(repro.serving, "ServiceGateway", Gateway)
        assert cli_main(["serve", "--nodes", "2", "--port", "0",
                         "--data-dir", str(tmp_path), "--quiet"]) == 2
        (config,) = configs
        bits, hashes = optimal_parameters(
            NODE_BLOOM_ITEMS, HashNodeConfig().bloom_false_positive_rate)
        for index in range(2):
            node = config.worker_spec(index).build_node()
            try:
                assert (node.bloom.num_bits, node.bloom.num_hashes) == (bits, hashes)
                # Each checkpoint writes these bits: ~2.4 MB, not the default's ~60 MB.
                assert bits // 8 < 3_000_000
            finally:
                node.persistence.close()
