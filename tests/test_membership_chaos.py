"""Property-based chaos harness for the membership/failover surface.

Random seeded interleavings of join / leave / crash / recover run against a
replicated cluster while a workload streams through it.  After **every**
step the core invariants are asserted:

* dedup accuracy is 100% for ``replication_factor >= 2`` (every verdict
  matches an exact oracle);
* every fingerprint's *live replica set* matches the partition map: the
  live nodes holding it are exactly its desired (live successor) set, i.e.
  the cluster is fully replicated and keeps no stray copy after each
  repairing operation;
* ``distinct`` counts are conserved: the cluster never loses (or invents)
  a fingerprint, under any interleaving.

The harness keeps at most ``replication_factor - 1`` nodes down at once --
the regime the paper's replication is sized for; anything beyond that is
expected data loss, not a regression.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.placement_reference import as_fingerprint
from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.membership import ChurnPlan, MembershipManager
from repro.dedup.fingerprint import synthetic_fingerprint

#: Upper bound on cluster size so runs stay cheap.
MAX_NODES = 8
#: Distinct fingerprint identities the workload draws from (forces dupes).
IDENTITIES = 260
#: Fingerprints streamed between consecutive chaos operations.
BATCH = 24

OPS = ("join", "leave", "crash", "recover")


def build_cluster(num_nodes: int, replication: int) -> SHHCCluster:
    return SHHCCluster(
        ClusterConfig(
            num_nodes=num_nodes,
            node=HashNodeConfig(
                ram_cache_entries=256, bloom_expected_items=20_000, ssd_buckets=1 << 10
            ),
            replication_factor=replication,
            virtual_nodes=32,
        )
    )


class ChaosRun:
    """One interleaving: applies ops, streams lookups, asserts invariants."""

    def __init__(self, seed: int, replication: int) -> None:
        self.rng = random.Random(seed)
        self.replication = replication
        self.cluster = build_cluster(4, replication)
        self.manager = MembershipManager(self.cluster)
        self.controller = self.manager.controller
        self.oracle: set = set()
        self.next_node = 4
        self.ops_applied: list = []

    # -- chaos operations ---------------------------------------------------------
    def down_nodes(self):
        return [n for n in self.cluster.node_names if self.cluster.is_down(n)]

    def live_nodes(self):
        return [n for n in self.cluster.node_names if not self.cluster.is_down(n)]

    def apply(self, op: str) -> bool:
        """Apply one operation if its precondition holds; returns whether it ran."""
        cluster = self.cluster
        if op == "join":
            if cluster.num_nodes >= MAX_NODES:
                return False
            node_id = f"hashnode-{self.next_node}"
            self.next_node += 1
            report = self.manager.add_node(node_id)
            assert report.unreachable == 0, "join migration hit unreadable digests"
        elif op == "leave":
            # Only retire live nodes, and keep enough members for the factor.
            candidates = self.live_nodes()
            if len(cluster.nodes) <= max(2, self.replication) or len(candidates) <= 1:
                return False
            victim = self.rng.choice(sorted(candidates))
            report = self.manager.remove_node(victim)
            assert report.unreachable == 0, "leave migration hit unreadable digests"
        elif op == "crash":
            # Never take down more than replication-1 nodes at once.
            if len(self.down_nodes()) >= self.replication - 1:
                return False
            candidates = self.live_nodes()
            if len(candidates) <= 1:
                return False
            victim = self.rng.choice(sorted(candidates))
            self.controller.handle_failure(victim)
        elif op == "recover":
            downed = self.down_nodes()
            if not downed:
                return False
            self.controller.handle_recovery(self.rng.choice(sorted(downed)))
        else:  # pragma: no cover - guarded by OPS
            raise AssertionError(op)
        self.ops_applied.append(op)
        return True

    # -- workload + invariants ----------------------------------------------------
    def stream(self) -> None:
        """Send one batch of lookups and check every verdict against the oracle."""
        batch = [
            synthetic_fingerprint(self.rng.randrange(IDENTITIES))
            for _ in range(BATCH)
        ]
        for outcome in self.cluster.lookup_batch(batch):
            expected = outcome.fingerprint.digest in self.oracle
            self.oracle.add(outcome.fingerprint.digest)
            assert outcome.is_duplicate == expected, (
                f"verdict mismatch after {self.ops_applied!r}: "
                f"expected duplicate={expected}"
            )

    def check_invariants(self) -> None:
        cluster = self.cluster
        # Conservation: nothing lost, nothing invented (scans down nodes too).
        assert cluster.distinct_fingerprints() == len(self.oracle), (
            f"distinct count drifted after {self.ops_applied!r}"
        )
        # Replication health: every digest on min(k, live) nodes.
        report = self.controller.consistency_report()
        assert report.is_healthy, (
            f"under-replicated={report.under_replicated} lost={report.lost} "
            f"after {self.ops_applied!r}"
        )
        # Placement equals the partition map: every digest's live holders are
        # exactly its live desired replica set (repair drops interim copies).
        placement = self.controller.placement()
        for digest, holders in placement.items():
            fingerprint = as_fingerprint(digest, self._value_of(digest, holders))
            desired = self.controller.desired_nodes(fingerprint)
            assert set(desired) == holders, (
                f"digest on {sorted(holders)}, desired {desired} "
                f"after {self.ops_applied!r}"
            )

    def _value_of(self, digest, holders):
        for holder in holders:
            value = self.cluster.nodes[holder].store.get(digest)
            if value is not None:
                return value
        return 0

    def run(self, num_ops: int = 6) -> None:
        self.stream()  # warm the cluster before the first membership change
        for _ in range(num_ops):
            # Every op ends in a repair (migration or anti-entropy), so the
            # invariants must hold immediately after it -- even though the
            # preceding stream may have written while a node was down.
            if self.apply(self.rng.choice(OPS)):
                self.check_invariants()
            self.stream()
        # End of chaos: heal whatever is still down, then everything must be
        # fully consistent (writes made during the last outage included).
        for node in self.down_nodes():
            self.controller.handle_recovery(node)
        self.check_invariants()
        assert len(self.oracle) > 0


# 200+ randomized interleavings: 120 at k=2, 80 at k=3.
@pytest.mark.parametrize("seed", range(120))
def test_chaos_interleavings_replication_2(seed):
    ChaosRun(seed, replication=2).run()


@pytest.mark.parametrize("seed", range(200, 280))
def test_chaos_interleavings_replication_3(seed):
    ChaosRun(seed, replication=3).run()


class TestChaosHarness:
    def test_preconditions_filter_impossible_ops(self):
        run = ChaosRun(seed=1, replication=2)
        assert run.apply("recover") is False  # nothing is down
        assert run.apply("crash") is True
        assert run.apply("crash") is False  # k-1 nodes already down
        assert run.apply("recover") is True

    def test_leave_keeps_enough_members_for_the_factor(self):
        run = ChaosRun(seed=2, replication=3)
        # 4 nodes at k=3: one leave allowed (down to 3), then refused.
        assert run.apply("leave") is True
        assert run.apply("leave") is False

    def test_operations_are_deterministic_per_seed(self):
        first = ChaosRun(seed=7, replication=2)
        second = ChaosRun(seed=7, replication=2)
        first.run()
        second.run()
        assert first.ops_applied == second.ops_applied
        assert first.oracle == second.oracle


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    replication=st.sampled_from([2, 3]),
    num_ops=st.integers(min_value=1, max_value=8),
)
def test_chaos_property_any_seed_any_length(seed, replication, num_ops):
    """Hypothesis sweep: arbitrary seeds/lengths uphold the same invariants."""
    ChaosRun(seed, replication=replication).run(num_ops=num_ops)


@given(
    events=st.integers(min_value=1, max_value=32),
    kind=st.sampled_from(ChurnPlan.KINDS),
    start=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    horizon=st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
)
def test_churn_plan_schedule_properties(events, kind, start, horizon):
    """Schedules are in-bounds, ordered, and sized exactly like the plan."""
    plan = ChurnPlan(kind=kind, events=events, start=start)
    if horizon <= start:
        with pytest.raises(ValueError):
            plan.schedule(horizon)
        return
    schedule = plan.schedule(horizon)
    assert len(schedule) == events
    times = [event.time for event in schedule]
    assert times == sorted(times)
    assert all(start <= t < horizon for t in times)
    if kind == "grow":
        assert all(e.action == "join" for e in schedule)
    elif kind == "shrink":
        assert all(e.action == "leave" for e in schedule)
    else:
        assert schedule[0].action == "join"
