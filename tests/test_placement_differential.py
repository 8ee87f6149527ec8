"""The placement sweep against the two walks it replaced.

Twin clusters get the same history; one is driven through the tree's
``MembershipManager`` / ``ReplicationController`` and the other through
``tests/oracles/placement_reference.py`` (the old ``_rebuild`` and
``repair`` bodies).  Every case runs at replication factor 1, 2 and 3, on
range partitioning and on 16- and 64-vnode rings, with and without a
``CostModel`` + ``PersistencePolicy``.

* A membership change -- join, leave, ``recover()`` after an interrupted
  add or remove, decommissioning a down node -- must match exactly:
  ``MigrationReport``s, every node's store items in order, the ledger's
  counters and ``busy_until``, and the persistence log's ``records``.
* Anti-entropy repair (crash, write degraded, recover) must create as
  many copies as the reference; its stores equal the reference's minus the
  copies on live nodes outside their live desired set, and its logs carry
  one removed key per such copy.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from oracles.placement_reference import (
    ReferenceMembershipManager,
    ReferenceReplicationController,
    as_fingerprint,
)
from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig, HashNodeConfig
from repro.core.membership import MembershipManager
from repro.core.persistence import PersistencePolicy
from repro.core.replication import ReplicationController
from repro.dedup.fingerprint import synthetic_fingerprint
from repro.simulation.costmodel import CostModel

FACTORS = (1, 2, 3)
#: 0 is range partitioning; the others are consistent-hash rings.
VNODES = (0, 16, 64)


@pytest.fixture
def build_cluster():
    """``build_cluster(replication, virtual_nodes, costed, directory)``: a
    cluster closed (its members' logs with it) when the test ends."""
    built = []

    def build(replication, virtual_nodes, costed, directory) -> SHHCCluster:
        config = ClusterConfig(
            num_nodes=4,
            node=HashNodeConfig(
                ram_cache_entries=128, bloom_expected_items=20_000, ssd_buckets=1 << 8
            ),
            replication_factor=replication,
            virtual_nodes=virtual_nodes,
        )
        persistence = PersistencePolicy(str(directory)) if costed else None
        cost_model = CostModel() if costed else None
        cluster = SHHCCluster(config, cost_model=cost_model, persistence=persistence)
        built.append(cluster)
        return cluster

    yield build
    for cluster in built:
        cluster.close()


def fingerprints(start, stop):
    return [synthetic_fingerprint(index) for index in range(start, stop)]


def load(cluster: SHHCCluster) -> None:
    """Fill the cluster; at k >= 2 some digests are written with a node down."""
    cluster.lookup_batch(fingerprints(0, 300))
    if cluster.config.replication_factor >= 2:
        cluster.mark_down("hashnode-3")
        cluster.lookup_batch(fingerprints(200, 420))
        cluster.mark_up("hashnode-3")


def state(cluster: SHHCCluster) -> dict:
    ledger = cluster.ledger
    return {
        "stores": {name: list(node.store.items()) for name, node in cluster.nodes.items()},
        "down": [name for name in cluster.node_names if cluster.is_down(name)],
        "ledger": None if ledger is None else (dict(ledger.counters), dict(ledger.busy_until)),
        "records": {
            name: node.persistence.records
            for name, node in cluster.nodes.items()
            if node.persistence is not None
        },
    }


class _Interrupted(Exception):
    """A membership change dies inside its migration."""


def _interrupted_then_recovered(manager, change):
    def interrupt(*_args, **_kwargs):
        raise _Interrupted

    manager._rebuild = interrupt
    with pytest.raises(_Interrupted):
        change(manager)
    del manager._rebuild
    return manager.recover()


def _decommission_down_node(manager):
    manager.cluster.mark_down("hashnode-2")
    return [manager.remove_node("hashnode-2")]


CHANGES = {
    "join": lambda manager: [manager.add_node("hashnode-4")],
    "leave": lambda manager: [manager.remove_node("hashnode-1")],
    "join then leave": lambda manager: [
        manager.add_node("hashnode-4"), manager.remove_node("hashnode-0")
    ],
    "recover an interrupted add": lambda manager: _interrupted_then_recovered(
        manager, lambda m: m.add_node("hashnode-4")
    ),
    "recover an interrupted remove": lambda manager: _interrupted_then_recovered(
        manager, lambda m: m.remove_node("hashnode-1")
    ),
    "decommission a down node": _decommission_down_node,
}


@pytest.mark.parametrize("costed", [False, True], ids=["free", "costed+persistent"])
@pytest.mark.parametrize("virtual_nodes", VNODES)
@pytest.mark.parametrize("replication", FACTORS)
@pytest.mark.parametrize("change", sorted(CHANGES))
def test_a_membership_change_matches_the_reference_walk(
    change, replication, virtual_nodes, costed, tmp_path, build_cluster
):
    tree = build_cluster(replication, virtual_nodes, costed, tmp_path / "tree")
    reference = build_cluster(replication, virtual_nodes, costed, tmp_path / "reference")
    load(tree)
    load(reference)
    assert state(tree) == state(reference)

    tree_reports = CHANGES[change](MembershipManager(tree))
    reference_reports = CHANGES[change](ReferenceMembershipManager(reference))

    assert [asdict(report) for report in tree_reports] == [
        asdict(report) for report in reference_reports
    ]
    # Every case touches data: at k = 1 on a ring a dead node's entries are
    # unreachable rather than moved.
    assert sum(report.entries_moved + report.unreachable for report in tree_reports) > 0
    assert state(tree) == state(reference)


def _repaired_twins(build_cluster, replication, virtual_nodes, costed, directory):
    """Crash hashnode-1, write degraded, recover it; repair after each flip."""
    tree = build_cluster(replication, virtual_nodes, costed, directory / "tree")
    reference = build_cluster(replication, virtual_nodes, costed, directory / "reference")
    controllers = (ReplicationController(tree), ReferenceReplicationController(reference))
    created = ([], [])
    for cluster, controller, log in zip((tree, reference), controllers, created):
        load(cluster)
        log.append(controller.handle_failure("hashnode-1"))
        if replication >= 2:
            cluster.lookup_batch(fingerprints(380, 520))
        log.append(controller.handle_recovery("hashnode-1"))
    return controllers, created


@pytest.mark.parametrize("costed", [False, True], ids=["free", "costed+persistent"])
@pytest.mark.parametrize("virtual_nodes", VNODES)
@pytest.mark.parametrize("replication", FACTORS)
def test_repair_creates_as_many_copies_as_the_reference_and_stays_uncharged(
    replication, virtual_nodes, costed, tmp_path, build_cluster
):
    (tree, reference), created = _repaired_twins(
        build_cluster, replication, virtual_nodes, costed, tmp_path
    )
    assert created[0] == created[1]
    if replication >= 2:
        assert created[0][0] > 0 and created[0][1] > 0
    assert state(tree.cluster)["ledger"] == state(reference.cluster)["ledger"]


def _live_desired(controller: ReplicationController, digest: bytes, value) -> list:
    return controller.desired_nodes(as_fingerprint(digest, value))


@pytest.mark.parametrize("costed", [False, True], ids=["free", "costed+persistent"])
@pytest.mark.parametrize("virtual_nodes", VNODES)
@pytest.mark.parametrize("replication", FACTORS)
def test_repair_keeps_the_reference_copies_on_the_live_set_and_drops_the_rest(
    replication, virtual_nodes, costed, tmp_path, build_cluster
):
    (tree, reference), _created = _repaired_twins(
        build_cluster, replication, virtual_nodes, costed, tmp_path
    )
    tree_state, reference_state = state(tree.cluster), state(reference.cluster)
    expected, drops = {}, {}
    for name, items in reference_state["stores"].items():
        kept = {
            digest: value for digest, value in items
            if name in _live_desired(reference, digest, value)
        }
        expected[name] = kept
        drops[name] = len(items) - len(kept)
    # As maps: the reference imported in store-scan order, the sweep imports
    # in digest order.
    assert {name: dict(items) for name, items in tree_state["stores"].items()} == expected
    if replication >= 2:
        # crash -> repair -> recover left interim copies outside the set
        assert sum(drops.values()) > 0
    # One removed key logged per dropped copy.
    assert tree_state["records"] == {
        name: records + drops[name] for name, records in reference_state["records"].items()
    }
    # Placement equals the partition map: each digest on exactly its live set.
    for digest, holders in tree.placement().items():
        value = tree.cluster.nodes[next(iter(holders))].store.get(digest)
        assert set(_live_desired(tree, digest, value)) == holders
