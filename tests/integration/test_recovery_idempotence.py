"""Recovery is idempotent: running it again leaves the store as it was.

Section 4 re-runs every start hook at each recovery, and a process may
crash again before its recovery is over, so whatever recovery writes
to stable storage must converge: a second, third or fourth recovery
must find and leave the same store.  The one write the paper wants to
differ each time is the incarnation bump of Section 4.1, and
:data:`ALLOWED` names each such key with its reason.

Each stack runs on the simulator with every store journalled to a
``SimDisk``.  Once some messages are ordered, one node is left alone
with a message it cannot order (its peers are down).  It then crashes
and recovers three times in a row, with no other event in between, and
after each crash the store it reopens from its disk is read.  Nothing
may run between the recoveries: a checkpoint would rewrite the log and
hide a write that compounds.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

import pytest

from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import Cluster, ClusterConfig
from repro.quorum.register import QuorumRegister
from repro.runtime import Node, SimRuntime
from repro.storage.disk import SimDisk
from repro.storage.stable import StableStorage
from repro.transport.endpoint import Endpoint
from repro.transport.network import Network, NetworkConfig

#: The keys a recovery may change, each advancing by one per recovery.
ALLOWED = {
    "ab/incarnation": "Section 4.1: each recovery starts a new "
                      "incarnation, so ids minted after it never reuse "
                      "one; a crash mid-bump only skips a number",
    "qr/incarnation": "the quorum register's request tags must differ "
                      "across incarnations; gaps are safe, reuse is not",
}

RECOVERIES = 3


def disk_store(node_id: int) -> StableStorage:
    return StableStorage(SimDisk(rng=random.Random(node_id),
                                 node_hint=node_id))


def contents(store: StableStorage) -> Dict[str, Any]:
    return {key: store.retrieve(key) for key in store.keys()}


def assert_converges(stores: List[Dict[str, Any]]) -> None:
    """Successive stores differ only in :data:`ALLOWED` keys, each one
    up by one."""
    for before, after in zip(stores, stores[1:]):
        changed = sorted(key for key in set(before) | set(after)
                         if before.get(key) != after.get(key))
        assert set(changed) <= set(ALLOWED), \
            f"recovery changed {changed}, not only {sorted(ALLOWED)}"
        for key in changed:
            assert after[key] == before[key] + 1, key


def recover_in_a_row(crash, recover, store) -> List[Dict[str, Any]]:
    """The store the node reopens before the first of
    :data:`RECOVERIES` back-to-back recoveries and after each one."""
    crash()
    stores = [contents(store())]
    for _ in range(RECOVERIES):
        recover()
        crash()
        stores.append(contents(store()))
    return stores


STACKS = {
    "basic": dict(protocol="basic"),
    "alternative": dict(protocol="alternative"),
    "alternative-logged": dict(
        protocol="alternative",
        alt=AlternativeConfig(log_unordered=True, incremental=True)),
    "eager": dict(protocol="eager"),
    "join": dict(protocol="alternative"),
}


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_back_to_back_recoveries_change_only_the_incarnation(stack):
    cluster = Cluster(ClusterConfig(n=3, seed=3, storage_factory=disk_store,
                                    **STACKS[stack]))
    cluster.start()
    for index in range(6):
        cluster.submit(index % 3, ("m", index))
        cluster.run_for(0.3)
    target = 2
    if stack == "join":
        target = cluster.add_node()
    assert cluster.settle(within=30.0)
    assert target in cluster.current_view().members
    for peer in cluster.node_ids():
        if peer != target:
            cluster.crash(peer)
    held = cluster.submit(target, "held")
    assert held.id in cluster.abcasts[target].unordered

    node = cluster.nodes[target]
    stores = recover_in_a_row(lambda: cluster.crash(target),
                              lambda: cluster.recover(target),
                              lambda: node.storage)
    assert_converges(stores)
    assert stores[-1]["ab/incarnation"] == \
        stores[0]["ab/incarnation"] + RECOVERIES


def test_quorum_register_recoveries_change_only_its_incarnation():
    sim = SimRuntime(seed=3)
    network = Network(sim, sim.rng("network"), NetworkConfig())
    node = Node(sim, 0, disk_store(0))
    node.add_component(QuorumRegister(node.add_component(Endpoint(network))))
    network.register(node)
    node.start()
    stores = recover_in_a_row(node.crash, node.recover,
                              lambda: node.storage)
    assert_converges(stores)
    assert stores[-1]["qr/incarnation"] == RECOVERIES + 1
