"""Tests for the control-plane cost model (simulation/costmodel.py).

Covers the pricing math, the immediate-mode ledger's queueing semantics,
the byte-identity of the disabled path, the strict latency tax the timed
experiments must report, and that a cluster built on a simulator charges
the same ledger.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments.control_plane import (
    DEFAULT_OUTAGE_DENSITY,
    DEGRADED_PHASE,
    MIGRATING_PHASE,
    STEADY_PHASE,
    run_churn_timed,
    run_failover_timed,
)
from repro.analysis.experiments.failover import run_failover
from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.membership import MembershipManager
from repro.core.persistence import PersistencePolicy
from repro.core.protocol import BatchLookupRequest
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.network.link import DEFAULT_LINK_LATENCY, GIGABIT_BANDWIDTH
from repro.network.topology import ClusterTopology
from repro.scenarios import run_scenario
from repro.simulation.costmodel import ControlPlaneLedger, CostModel
from repro.simulation.engine import Simulator


def _small_config(num_nodes: int = 3, replication_factor: int = 2) -> ClusterConfig:
    return ClusterConfig(
        num_nodes=num_nodes,
        replication_factor=replication_factor,
        virtual_nodes=16,
        node=HashNodeConfig(ram_cache_entries=1_024, bloom_expected_items=20_000),
    )


def _workload(count: int, distinct: int, seed: int = 5):
    import random

    rng = random.Random(seed)
    return [synthetic_fingerprint(rng.randrange(distinct)) for _ in range(count)]


class TestCostModel:
    def test_transfer_time_prices_hops_and_bytes(self):
        model = CostModel()
        assert model.transfer_time(0, 64, 2) == pytest.approx(2 * DEFAULT_LINK_LATENCY)
        one_entry = model.replica_transfer_time(1)
        assert one_entry == pytest.approx(
            model.replica_hops * model.hop_latency + 64 / GIGABIT_BANDWIDTH
        )
        # Bytes scale linearly, the hop latency is paid once per message.
        assert model.replica_transfer_time(10) == pytest.approx(
            model.replica_hops * model.hop_latency + 10 * 64 / GIGABIT_BANDWIDTH
        )

    def test_cpu_prices_are_per_entry(self):
        model = CostModel(replica_write_cpu=3e-6, migration_entry_cpu=2e-6)
        assert model.replica_apply_cpu(5) == pytest.approx(15e-6)
        assert model.migration_cpu(4) == pytest.approx(8e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(replica_write_cpu=-1.0)
        with pytest.raises(ValueError):
            CostModel(bandwidth=0.0)
        with pytest.raises(ValueError):
            CostModel(replica_hops=-1)


class TestControlPlaneLedger:
    def test_begin_service_queues_fifo_per_node(self):
        ledger = ControlPlaneLedger(CostModel())
        start, end = ledger.begin_service("a", 2.0)
        assert (start, end) == (0.0, 2.0)
        start, end = ledger.begin_service("a", 1.0)  # queues behind the first
        assert (start, end) == (2.0, 3.0)
        start, end = ledger.begin_service("b", 1.0)  # other node: idle
        assert (start, end) == (0.0, 1.0)
        ledger.advance_to(10.0)
        start, end = ledger.begin_service("a", 1.0)  # backlog drained by now
        assert (start, end) == (10.0, 11.0)

    def test_defer_delays_later_lookups(self):
        ledger = ControlPlaneLedger(CostModel())
        done = ledger.defer("a", at=5.0, cpu_time=2.0)
        assert done == 7.0
        assert ledger.control_plane_cpu_seconds == pytest.approx(2.0)
        # A lookup arriving at t=0 still queues behind the deferred work.
        _start, end = ledger.begin_service("a", 1.0)
        assert end == 8.0
        assert ledger.backlog() == pytest.approx(8.0)

    def test_charge_bucket_records_per_phase(self):
        ledger = ControlPlaneLedger(CostModel())
        ledger.charge_bucket("a", [1.0, 1.0])
        ledger.set_phase(DEGRADED_PHASE)
        ledger.charge_bucket("a", [1.0])
        phases = ledger.phases
        assert phases[STEADY_PHASE].count == 2
        assert phases[DEGRADED_PHASE].count == 1
        # Second bucket queued behind the first: latency 2 + 1 from t=0.
        assert phases[DEGRADED_PHASE].percentile(0.5) == pytest.approx(3.0)
        assert ledger.counters["lookups"] == 3

    def test_charge_bucket_adds_one_value_counted_once_per_reply(self):
        ledger = ControlPlaneLedger(CostModel())
        end = ledger.charge_bucket("a", [0.5, 0.25, 0.25])
        tally = ledger.phases[STEADY_PHASE]
        # Every reply completes with the bucket: one latency, counted three times.
        assert tally.counts == {end - ledger.now: 3}
        assert tally.percentile(0.0) == tally.percentile(1.0) == pytest.approx(1.0)

    def test_an_empty_bucket_records_no_latency(self):
        ledger = ControlPlaneLedger(CostModel())
        ledger.charge_bucket("a", [])
        assert STEADY_PHASE not in ledger.phases
        assert ledger.counters["lookups"] == 0

    def test_charge_replica_writes_defers_on_targets(self):
        model = CostModel()
        ledger = ControlPlaneLedger(model)
        ledger.charge_bucket("a", [1.0])
        ledger.charge_replica_writes({"b": 4})
        expected = 1.0 + model.replica_transfer_time(4) + model.replica_apply_cpu(4)
        assert ledger.busy_until["b"] == pytest.approx(expected)
        assert ledger.counters["replica_writes"] == 4
        assert ledger.counters["replica_messages"] == 1

    def test_charge_migration_chains_export_wire_import(self):
        model = CostModel()
        ledger = ControlPlaneLedger(model)
        ledger.charge_migration({("a", "b"): 10})
        export_done = model.migration_cpu(10)
        assert ledger.busy_until["a"] == pytest.approx(export_done)
        assert ledger.busy_until["b"] == pytest.approx(
            export_done + model.migration_transfer_time(10) + model.migration_cpu(10)
        )
        assert ledger.counters["migration_entries"] == 10


class TestDisabledPathIdentity:
    """Charging must never change verdicts, counters or replica writes."""

    def test_enabled_replies_identical_to_disabled(self):
        fingerprints = _workload(4_000, 1_500)
        plain = SHHCCluster(_small_config())
        charged = SHHCCluster(_small_config(), cost_model=CostModel())
        for start in range(0, len(fingerprints), 256):
            batch = fingerprints[start:start + 256]
            assert charged.lookup_batch_replies(batch) == plain.lookup_batch_replies(batch)
        assert charged.read_repairs == plain.read_repairs
        assert charged.failovers == plain.failovers
        assert charged.total_stored == plain.total_stored
        for name in plain.nodes:
            assert (
                dict(charged.nodes[name].counters)
                == dict(plain.nodes[name].counters)
            )
        # ...and the enabled cluster actually charged something.
        assert charged.ledger is not None
        assert charged.ledger.counters["replica_writes"] > 0
        assert plain.ledger is None

    def test_migration_identical_with_charging(self):
        fingerprints = _workload(2_000, 1_000)
        plain = SHHCCluster(_small_config())
        charged = SHHCCluster(_small_config(), cost_model=CostModel())
        plain.lookup_batch(fingerprints)
        charged.lookup_batch(fingerprints)
        plain_report = MembershipManager(plain).add_node("hashnode-9")
        charged_report = MembershipManager(charged).add_node("hashnode-9")
        assert charged_report.entries_moved == plain_report.entries_moved
        assert charged_report.source_breakdown == plain_report.source_breakdown
        assert charged.total_stored == plain.total_stored
        assert charged.ledger.counters["migration_entries"] == plain_report.entries_moved


class TestTimedExperiments:
    def test_failover_timed_degraded_p99_strictly_higher(self):
        result = run_failover_timed(scale=0.001, seed=0)
        assert result[f"{STEADY_PHASE}_lookups"] > 0 and result[f"{DEGRADED_PHASE}_lookups"] > 0
        assert result[f"{DEGRADED_PHASE}_p99_latency_us"] > result[f"{STEADY_PHASE}_p99_latency_us"]
        assert result["p99_tax"] > 1.0
        assert result["throughput"] > 0.0
        assert result["crashes"] > 0
        assert result["recoveries"] > 0
        assert result["replica_writes"] > 0
        assert {"crashes", "recoveries", "replica_writes"} <= set(result["counters"])
        assert result["control_plane_cpu_seconds"] > 0.0

    def test_failover_timed_verdicts_are_audited(self):
        """The timed loop checks every verdict against the oracle.

        At k=2 nothing is ever lost or unserved, but the timed run has no
        anti-entropy sweep on recovery, so a rolling outage that takes a
        fingerprint's second holder down right after the first came back
        reports that duplicate as new -- exactly the mismatches the untimed
        run shows with ``repair_on_recovery=False``, and none with the sweep
        on or with a third replica.
        """
        timed = run_failover_timed(scale=0.001, seed=0)
        assert timed["false_duplicates"] == 0 and timed["unserved"] == 0
        unrepaired = run_failover(
            scale=0.001, seed=0, outage_density=DEFAULT_OUTAGE_DENSITY, repair_on_recovery=False
        )
        assert timed["false_uniques"] == unrepaired["false_uniques"] > 0
        assert timed["dedup_accuracy"] == unrepaired["dedup_accuracy"] < 1.0
        repaired = run_failover(scale=0.001, seed=0, outage_density=DEFAULT_OUTAGE_DENSITY)
        assert repaired["dedup_errors"] == 0
        assert run_failover_timed(scale=0.0005, replication_factor=3)["dedup_errors"] == 0

    def test_churn_timed_migrating_p99_strictly_higher(self):
        result = run_churn_timed(scale=0.001, seed=0)
        assert result[f"{STEADY_PHASE}_lookups"] > 0 and result[f"{MIGRATING_PHASE}_lookups"] > 0
        assert result[f"{MIGRATING_PHASE}_p99_latency_us"] > result[f"{STEADY_PHASE}_p99_latency_us"]
        assert result["p99_tax"] > 1.0
        assert result["joins"] > 0
        assert result["migration_entries"] > 0
        assert result["dedup_errors"] == 0 and result["unserved"] == 0
        assert result["dedup_accuracy"] == 1.0

    def test_presets_report_tax_metrics(self):
        failover = run_scenario("failover_timed", scale=0.001)
        assert failover.metrics["p99_tax"] > 1.0
        assert failover.metrics["degraded_p99_latency_us"] > failover.metrics["steady_p99_latency_us"]
        assert failover.metrics["false_duplicates"] == 0
        assert failover.metrics["dedup_accuracy"] == pytest.approx(
            1.0 - failover.metrics["false_uniques"] / failover.metrics["fingerprints"]
        )
        churn = run_scenario("churn_timed", scale=0.001)
        assert churn.metrics["p99_tax"] > 1.0
        assert churn.metrics["migrating_p99_latency_us"] > churn.metrics["steady_p99_latency_us"]
        assert churn.metrics["dedup_accuracy"] == 1.0
        assert churn.metrics["false_uniques"] == churn.metrics["false_duplicates"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_failover_timed(scale=0.001, offered_load=1.5)
        with pytest.raises(ValueError):
            # One giant batch: too short for an outage plan starting at t=1.
            run_failover_timed(scale=0.0001, batch_size=1_000_000)
        with pytest.raises(ValueError):
            run_churn_timed(scale=0.001, num_nodes=1)


class TestSimulatedClusterCharging:
    """A cluster on a simulator charges the same one ledger."""

    def test_replica_writes_migration_and_recovery_reach_the_ledger(self, tmp_path):
        sim = Simulator()
        model = CostModel()
        cluster = SHHCCluster(
            _small_config(),
            sim=sim,
            cost_model=model,
            persistence=PersistencePolicy(directory=str(tmp_path)),
        )
        ledger = cluster.ledger
        assert ledger is not None and ledger.model is model
        network = ClusterTopology(
            num_clients=1, num_web_servers=1, num_hash_nodes=3
        ).build_network(sim)
        cluster.register_services(network.rpc)

        # Replica writes, through the RPC handler: at k=2 each new
        # fingerprint ships one entry, in one message, to its other replica.
        serving = "hashnode-0"
        owned = [
            fp
            for fp in (synthetic_fingerprint(i) for i in range(300))
            if cluster.replica_set(fp)[0] == serving
        ]
        request = BatchLookupRequest(owned)
        network.rpc.call("client-0", serving, request, request.payload_bytes)
        sim.run()
        assert len(owned) > 0
        assert ledger.counters["replica_writes"] == len(owned)
        assert ledger.counters["replica_messages"] == len(owned)
        assert ledger.counters["replica_bytes"] == len(owned) * model.replica_entry_bytes
        targets = {cluster.replica_set(fp)[1] for fp in owned}
        assert all(ledger.busy_until[name] > 0.0 for name in targets)

        # Migration: a join's copy traffic.
        report = MembershipManager(cluster).add_node("hashnode-9")
        assert ledger.counters["migration_entries"] == report.entries_moved > 0

        # Recovery: a killed node's replay, priced and reported.
        cluster.kill_node(serving)
        recovery = cluster.restart_node(serving)
        assert ledger.counters["node_recoveries"] == 1
        replayed = recovery.entries + recovery.replayed
        assert ledger.counters["recovery_replayed_entries"] == replayed > 0
        assert recovery.charged_seconds == pytest.approx(
            model.recovery_cpu(replayed, recovery.snapshot_bytes)
        )
        cluster.close()
