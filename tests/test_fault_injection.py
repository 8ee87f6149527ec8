"""Tests for the fault-injection harness and the failover experiment."""

from __future__ import annotations

import inspect

import pytest
from oracles.set_model import set_verdicts

from repro.analysis.experiments.failover import run_failover
from repro.cli import main as cli_main
from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.fault_injection import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FlakyNode,
    NodeUnavailableError,
    make_flaky,
    rolling_outage_schedule,
)
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.frontend.client import SimulatedClient
from repro.frontend.gateway import build_simulated_service
from repro.network.topology import ClusterTopology
from repro.scenarios import run_scenario


def make_cluster(num_nodes=4, replication=2, virtual_nodes=0) -> SHHCCluster:
    config = ClusterConfig(
        num_nodes=num_nodes,
        node=HashNodeConfig(ram_cache_entries=512, bloom_expected_items=50_000, ssd_buckets=1 << 10),
        replication_factor=replication,
        virtual_nodes=virtual_nodes,
    )
    return SHHCCluster(config)


class TestFaultSchedule:
    def test_builder_orders_events(self):
        schedule = FaultSchedule().recover("n1", at=5.0).crash("n1", at=2.0)
        assert [(e.time, e.action) for e in schedule] == [(2.0, "crash"), (5.0, "recover")]
        assert schedule.horizon == 5.0
        assert len(schedule) == 2

    def test_outage_expands_to_crash_and_recover(self):
        schedule = FaultSchedule().outage("n0", start=1.0, duration=3.0)
        assert [(e.time, e.action, e.node) for e in schedule] == [
            (1.0, "crash", "n0"),
            (4.0, "recover", "n0"),
        ]

    def test_invalid_events_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, action="explode", node="n0")
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, action="crash", node="n0")
        with pytest.raises(ValueError):
            FaultSchedule().outage("n0", start=0.0, duration=0.0)

    def test_rolling_outage_keeps_one_node_down_at_a_time(self):
        schedule = rolling_outage_schedule(["a", "b", "c"], period=10.0, downtime=4.0)
        down = set()
        max_down = 0
        for event in schedule:
            if event.action == "crash":
                down.add(event.node)
            else:
                down.discard(event.node)
            max_down = max(max_down, len(down))
        assert max_down == 1
        assert not down
        with pytest.raises(ValueError):
            rolling_outage_schedule(["a"], period=2.0, downtime=2.0)


class TestFaultInjector:
    def test_advance_applies_due_events(self):
        cluster = make_cluster()
        schedule = FaultSchedule().outage("hashnode-1", start=2.0, duration=2.0)
        injector = FaultInjector(cluster, schedule)
        assert injector.advance(1.0) == []
        assert cluster.is_down("hashnode-1") is False
        fired = injector.advance(2.5)
        assert [e.action for e in fired] == ["crash"]
        assert cluster.is_down("hashnode-1") is True
        injector.drain()
        assert cluster.is_down("hashnode-1") is False
        assert injector.crashes == 1 and injector.recoveries == 1
        assert injector.pending == 0

    def test_recovery_hook_runs_after_mark_up(self):
        cluster = make_cluster()
        seen = []
        schedule = FaultSchedule().outage("hashnode-0", start=0.0, duration=1.0)
        injector = FaultInjector(
            cluster,
            schedule,
            on_recovery=lambda node: seen.append((node, cluster.is_down(node))),
        )
        injector.drain()
        assert seen == [("hashnode-0", False)]

    def test_kill_restart_events_destroy_and_recover_state(self, tmp_path):
        from repro.core.persistence import PersistencePolicy

        config = ClusterConfig(
            num_nodes=4,
            node=HashNodeConfig(
                ram_cache_entries=512, bloom_expected_items=50_000, ssd_buckets=1 << 10
            ),
            replication_factor=2,
        )
        cluster = SHHCCluster(
            config, persistence=PersistencePolicy(directory=str(tmp_path))
        )
        fingerprints = [synthetic_fingerprint(i) for i in range(100)]
        cluster.lookup_batch(fingerprints)
        held = len(cluster.nodes["hashnode-1"].store)
        assert held > 0

        schedule = FaultSchedule().kill_restart("hashnode-1", start=1.0, duration=2.0)
        injector = FaultInjector(cluster, schedule)
        injector.advance(1.5)
        assert cluster.is_down("hashnode-1")
        assert len(cluster.nodes["hashnode-1"].store) == 0  # state destroyed
        injector.drain()
        assert not cluster.is_down("hashnode-1")
        assert len(cluster.nodes["hashnode-1"].store) == held  # recovered
        assert injector.kills == 1 and injector.restarts == 1
        # Kill/restart also count toward the crash/recovery totals.
        assert injector.crashes == 1 and injector.recoveries == 1
        [(node, report)] = injector.recovery_reports
        assert node == "hashnode-1" and report is not None and report.entries == held
        cluster.close()

    def test_kill_restart_builder_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule().kill_restart("n1", start=1.0, duration=0.0)



class TestFlakyNode:
    def test_always_failing_node_raises(self):
        cluster = make_cluster()
        flaky = make_flaky(cluster, "hashnode-0", failure_rate=1.0)
        with pytest.raises(NodeUnavailableError):
            flaky.lookup(synthetic_fingerprint(1))
        assert flaky.injected_failures == 1

    def test_wrapper_intercepts_every_public_serving_entry_point(self):
        """A serving method added to the node without a FlakyNode override
        would be reached through ``__getattr__`` and never fail."""
        from repro.core.hash_node import HybridHashNode

        serving = sorted(
            name
            for name, member in vars(HybridHashNode).items()
            if callable(member) and name.startswith(("lookup", "serve"))
        )
        assert "serve_bucket_verdicts" in serving
        assert [name for name in serving if name not in vars(FlakyNode)] == []
        flaky = make_flaky(make_cluster(), "hashnode-0", failure_rate=1.0)
        for attempt, name in enumerate(serving, start=1):
            with pytest.raises(NodeUnavailableError):
                # One placeholder per parameter: the failure fires first.
                method = getattr(flaky, name)
                method(*[None] * len(inspect.signature(method).parameters))
            assert flaky.injected_failures == attempt

    def test_cluster_fails_over_around_flaky_node(self):
        cluster = make_cluster(num_nodes=3, replication=2)
        fingerprints = [synthetic_fingerprint(i) for i in range(60)]
        cluster.lookup_batch(fingerprints)

        victim = cluster.node_names[0]
        make_flaky(cluster, victim, failure_rate=1.0)
        verdicts = [r.is_duplicate for r in cluster.lookup_batch(fingerprints)]
        assert verdicts == [True] * len(fingerprints)
        assert cluster.failovers > 0
        served_by = {r.served_by for r in cluster.lookup_batch(fingerprints)}
        assert victim not in served_by

    def test_a_simulated_deployment_refuses_a_flaky_node(self, sim):
        # The RPC handler has no failover: registered, the wrapper's first
        # dropped batch would raise out of sim.run() with no reply delivered.
        cluster = SHHCCluster(make_cluster(num_nodes=3, replication=2).config, sim=sim)
        make_flaky(cluster, "hashnode-0", failure_rate=1.0)
        network = ClusterTopology(num_clients=1, num_web_servers=1, num_hash_nodes=3).build_network(sim)
        with pytest.raises(ValueError, match="immediate mode"):
            cluster.register_services(network.rpc)

    def test_zero_rate_wrapper_is_transparent(self):
        cluster = make_cluster(num_nodes=2, replication=1)
        fingerprint = synthetic_fingerprint(3)
        cluster.lookup(fingerprint)
        owner = cluster.owner_of(fingerprint)
        wrapper = make_flaky(cluster, owner, failure_rate=0.0)
        assert wrapper.node_id == owner
        assert fingerprint in wrapper
        assert len(wrapper) >= 1
        assert cluster.lookup(fingerprint).is_duplicate is True


class TestSimulatedDeploymentWithDownNode:
    """What the simulated rig keeps: routing around a node marked down before
    dispatch, and the replication semantics applied per RPC-served reply."""

    def _replay(self, sim, deployment, trace):
        client = SimulatedClient(
            client_id="client-0",
            rpc=deployment.network.rpc,
            load_balancer=deployment.load_balancer,
            fingerprints=trace,
            batch_size=16,
        )
        client.start()
        sim.run()
        return client.stats

    def test_replicated_deployment_serves_through_a_marked_down_node(self, sim):
        config = ClusterConfig(
            num_nodes=3,
            node=HashNodeConfig(ram_cache_entries=512, bloom_expected_items=50_000),
            replication_factor=2,
        )
        trace = [synthetic_fingerprint(i % 40) for i in range(160)]
        distinct = trace[:40]
        deployment = build_simulated_service(sim, config, num_clients=1, num_web_servers=1)
        cluster = deployment.cluster
        cluster.mark_down("hashnode-1")

        stats = self._replay(sim, deployment, trace)
        # Every batch answered, with the verdicts of a lossless index.
        assert stats.batches_sent == 10 and stats.fingerprints_sent == len(trace)
        expected = set_verdicts([fp.digest for fp in trace], set())
        assert stats.duplicates_found == sum(expected) == len(trace) - len(distinct)
        assert len(cluster) == len(distinct)
        # The down node served and stored nothing ...
        down = cluster.nodes["hashnode-1"]
        assert down.counters["lookups"] == 0 and len(down) == 0
        # ... and every surviving replica holds its copy: the RPC handler
        # applied write propagation, not just the serving node's insert.
        for fingerprint in distinct:
            live = [n for n in cluster.replica_set(fingerprint) if n != "hashnode-1"]
            assert live and all(fingerprint in cluster.nodes[n] for n in live)
        assert cluster.total_stored > len(distinct)

        # Back up, the node is primary again for keys it never saw: read
        # repair must still call every one of them a duplicate.
        cluster.mark_up("hashnode-1")
        again = self._replay(sim, deployment, trace)
        assert again.duplicates_found == again.fingerprints_sent == len(trace)
        assert cluster.read_repairs > 0 and len(down) > 0
        assert len(cluster) == len(distinct)


class TestFailoverExperiment:
    def test_zero_dedup_errors_with_replication(self):
        result = run_scenario(
            "failover", scale=0.0005, num_nodes=4, replication_factor=2, batch_size=128
        )
        metrics = result.metrics
        assert metrics["crashes"] == 4 and metrics["recoveries"] == 4
        assert metrics["dedup_errors"] == 0
        assert metrics["dedup_accuracy"] == 1.0
        assert metrics["distinct_fingerprints"] <= metrics["total_stored"]
        rendered = result.render()
        assert "dedup accuracy" in rendered
        assert "crash hashnode-0" in rendered

    def test_single_outage_needs_no_anti_entropy_repair(self):
        # For a single crash/recover cycle, read repair alone keeps every
        # verdict correct: fingerprints written while the primary was down
        # are found on their (never-failing) failover node and the recovered
        # primary is backfilled on first touch.  Rolling outages are the
        # scenario that *requires* the anti-entropy sweep, because a copy
        # written degraded is singular until repaired and a later crash of
        # its holder would lose the verdict.
        result = run_failover(
            scale=0.0005,
            num_nodes=4,
            replication_factor=2,
            batch_size=128,
            schedule=FaultSchedule().outage("hashnode-0", start=20.0, duration=60.0),
            repair_on_recovery=False,
        )
        assert result["crashes"] == 1 and result["recoveries"] == 1
        assert result["dedup_errors"] == 0
        assert result["repaired_copies"] == 0
        assert result["read_repairs"] > 0
        # Degraded-mode writes leave single copies behind without the sweep.
        assert result["under_replicated"] > 0

    def test_unreplicated_run_rejected_before_baseline(self):
        with pytest.raises(ValueError, match="replication_factor must be >= 2"):
            run_failover(scale=0.0005, replication_factor=1)
        # An explicit schedule (e.g. no faults at all) makes k=1 legitimate.
        result = run_failover(
            scale=0.0005, replication_factor=1, schedule=FaultSchedule()
        )
        assert result["crashes"] == 0 and result["dedup_errors"] == 0

    def test_cli_failover_rejects_bad_replication(self, capsys):
        assert cli_main(["run", "failover", "--set", "replication_factor=1"]) == 2
        assert "replication_factor" in capsys.readouterr().err

    def test_cli_failover_subcommand(self, capsys):
        exit_code = cli_main([
            "run", "failover", "--set", "scale=0.0005", "--set", "num_nodes=4",
            "--set", "replication_factor=2", "--set", "virtual_nodes=64",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Failover" in out
        assert "dedup errors" in out


class TestFaultPlan:
    """The declarative fault-plan layer (spec-addressable scenarios)."""

    def test_named_constructors(self):
        from repro.core.fault_injection import FaultPlan

        assert FaultPlan.none().kind == "none"
        assert not FaultPlan.none().has_outages
        rolling = FaultPlan.rolling_outage(0.3, rounds=2)
        assert rolling.has_outages and not rolling.has_grey_failures
        grey = FaultPlan.grey_failure(0.1, flaky_nodes=2)
        assert grey.has_grey_failures and not grey.has_outages
        both = FaultPlan.rolling_grey(0.3, 0.1)
        assert both.has_outages and both.has_grey_failures
        restart = FaultPlan.rolling_restart(0.3, rounds=2)
        assert restart.has_outages and not restart.has_grey_failures

    def test_rolling_restart_schedule_uses_kill_restart_events(self):
        from repro.core.fault_injection import FaultPlan

        nodes = ["n0", "n1", "n2", "n3"]
        schedule = FaultPlan.rolling_restart(0.5).schedule(nodes, horizon=41.0)
        actions = {event.action for event in schedule}
        assert actions == {"kill", "restart"}
        # Same slots/downtimes as the equivalent rolling outage.
        outage = FaultPlan.rolling_outage(0.5).schedule(nodes, horizon=41.0)
        assert [(e.time, e.node) for e in schedule] == [(e.time, e.node) for e in outage]
        assert FaultPlan.from_dict(
            FaultPlan.rolling_restart(0.3).to_dict()
        ) == FaultPlan.rolling_restart(0.3)

    def test_validation(self):
        from repro.core.fault_injection import FaultPlan

        with pytest.raises(ValueError):
            FaultPlan(kind="meteor-strike")
        with pytest.raises(ValueError):
            FaultPlan.rolling_outage(1.0)
        with pytest.raises(ValueError):
            FaultPlan.grey_failure(1.5)
        with pytest.raises(ValueError):
            FaultPlan(rounds=0)

    def test_dict_round_trip(self):
        from repro.core.fault_injection import FaultPlan

        plan = FaultPlan.rolling_grey(0.25, 0.05, flaky_nodes=2, rounds=3)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"kind": "none", "bogus": 1})

    def test_schedule_density_sizing(self):
        from repro.core.fault_injection import FaultPlan

        nodes = ["n0", "n1", "n2", "n3"]
        schedule = FaultPlan.rolling_outage(0.5).schedule(nodes, horizon=41.0)
        # One outage (crash + recover) per node, each half its slot long.
        assert len(schedule) == 2 * len(nodes)
        events = schedule.events
        period = (41.0 - 1.0) / len(nodes)
        first_crash = next(e for e in events if e.action == "crash")
        first_recover = next(e for e in events if e.node == first_crash.node and e.action == "recover")
        assert first_recover.time - first_crash.time == pytest.approx(period * 0.5)

    def test_zero_density_is_fault_free(self):
        from repro.core.fault_injection import FaultPlan, rolling_outage_from_density

        assert len(FaultPlan.none().schedule(["a"], horizon=10.0)) == 0
        assert len(rolling_outage_from_density(["a", "b"], horizon=10.0, density=0.0)) == 0

    def test_from_density_validation(self):
        from repro.core.fault_injection import rolling_outage_from_density

        with pytest.raises(ValueError):
            rolling_outage_from_density(["a"], horizon=10.0, density=1.0)
        with pytest.raises(ValueError):
            rolling_outage_from_density(["a"], horizon=0.5, density=0.2)

    def test_apply_grey_is_deterministic(self):
        from repro.core.fault_injection import FaultPlan

        plan = FaultPlan.grey_failure(0.2, flaky_nodes=2)
        first = plan.apply_grey(make_cluster(), seed=3)
        second = plan.apply_grey(make_cluster(), seed=3)
        assert len(first) == len(second) == 2
        fingerprints = [synthetic_fingerprint(i, 8192) for i in range(400)]

        def drops(wrappers, cluster):
            for fp in fingerprints:
                cluster.lookup(fp)
            return [w.injected_failures for w in wrappers]

        # Same seed, same nodes wrapped, same drop pattern.
        cluster_a, cluster_b = make_cluster(), make_cluster()
        wrap_a = plan.apply_grey(cluster_a, seed=3)
        wrap_b = plan.apply_grey(cluster_b, seed=3)
        assert drops(wrap_a, cluster_a) == drops(wrap_b, cluster_b)

    def test_run_failover_with_grey_plan_keeps_accuracy(self):
        from repro.core.fault_injection import FaultPlan

        result = run_failover(
            scale=0.0004,
            replication_factor=2,
            fault_plan=FaultPlan.rolling_grey(0.3, 0.2),
        )
        assert result["dedup_errors"] == 0
        assert result["crashes"] > 0
        assert result["grey_drops"] >= 0

    def test_run_failover_outage_density_shorthand(self):
        result = run_failover(scale=0.0004, replication_factor=2, outage_density=0.3)
        assert result["crashes"] == 4 and result["recoveries"] == 4
        assert result["dedup_errors"] == 0 and result["unserved"] == 0

    def test_run_failover_unreplicated_counts_unserved(self):
        result = run_scenario("failover", scale=0.0004, replication_factor=1, outage_density=0.4)
        assert result.metrics["unserved"] > 0
        assert result.metrics["dedup_accuracy"] < 1.0
        assert "unserved lookups" in result.render()

    def test_run_failover_rejects_conflicting_fault_arguments(self):
        from repro.core.fault_injection import FaultPlan

        with pytest.raises(ValueError):
            run_failover(
                scale=0.0004,
                fault_plan=FaultPlan.none(),
                outage_density=0.2,
            )

    def test_failover_reports_percentiles_and_tiers(self):
        result = run_failover(scale=0.0004, replication_factor=2)
        assert result["p50_latency_us"] <= result["p95_latency_us"] <= result["p99_latency_us"]
        assert set(result["served_from"]) == {"ram", "ssd", "new", "repair"}
        assert sum(result["served_from"].values()) > 0
