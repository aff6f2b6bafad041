"""Unit tests for the Section 6.1 reduction (consensus from Atomic Broadcast)."""

from __future__ import annotations

import random

from repro.consensus.paxos import PaxosConsensus
from repro.core.basic import BasicAtomicBroadcast
from repro.core.equivalence import ConsensusFromAtomicBroadcast
from repro.fdetect.heartbeat import HeartbeatDetector
from repro.fdetect.omega import OmegaOracle
from repro.runtime import Node, SimRuntime
from repro.storage.stable import StableStorage
from repro.transport.endpoint import Endpoint
from repro.transport.network import Network, NetworkConfig


def build(n=3, seed=0, loss=0.0, watch=lambda net: None):
    """``n`` nodes, each a reduction over basic Atomic Broadcast;
    ``watch`` sees the medium before any node starts."""
    sim = SimRuntime()
    net = Network(sim, random.Random(seed), NetworkConfig(loss_rate=loss))
    watch(net)
    nodes, reductions = {}, {}
    for i in range(n):
        node = Node(sim, i, StableStorage())
        endpoint = node.add_component(Endpoint(net))
        detector = node.add_component(HeartbeatDetector(endpoint))
        omega = node.add_component(OmegaOracle(detector))
        consensus = node.add_component(PaxosConsensus(endpoint, omega))
        abcast = node.add_component(BasicAtomicBroadcast(endpoint, consensus))
        reductions[i] = node.add_component(
            ConsensusFromAtomicBroadcast(abcast))
        net.register(node)
        nodes[i] = node
    for node in nodes.values():
        node.start()
    return sim, nodes, reductions


class TestConsensusFromAbcast:
    def test_agreement(self):
        sim, nodes, reductions = build()
        for i in range(3):
            sim.schedule(0.5, reductions[i].propose, 0, f"v{i}")
        sim.run(until=20.0)
        values = [reductions[i].decided_value(0) for i in range(3)]
        assert values[0] is not None
        assert values.count(values[0]) == 3

    def test_validity(self):
        sim, nodes, reductions = build(seed=1)
        for i in range(3):
            sim.schedule(0.5, reductions[i].propose, 0, f"v{i}")
        sim.run(until=20.0)
        assert reductions[0].decided_value(0) in {"v0", "v1", "v2"}

    def test_multiple_instances_independent(self):
        sim, nodes, reductions = build(seed=2)
        for k in range(3):
            for i in range(3):
                sim.schedule(0.5 + 0.1 * k, reductions[i].propose,
                             k, f"k{k}v{i}")
        sim.run(until=40.0)
        for k in range(3):
            values = [reductions[i].decided_value(k) for i in range(3)]
            assert values[0] is not None and values.count(values[0]) == 3
            assert values[0].startswith(f"k{k}")

    def test_propose_is_idempotent(self):
        sim, nodes, reductions = build(seed=3)
        sim.schedule(0.5, reductions[0].propose, 0, "v")
        sim.schedule(0.6, reductions[0].propose, 0, "v")
        for i in (1, 2):
            sim.schedule(0.5, reductions[i].propose, 0, f"v{i}")
        sim.run(until=20.0)
        assert reductions[0].decided_value(0) is not None

    def test_decision_rederived_after_recovery(self):
        """No logging of its own: the decision comes back via replay."""
        sim, nodes, reductions = build(seed=4)
        for i in range(3):
            sim.schedule(0.5, reductions[i].propose, 0, f"v{i}")
        sim.run(until=20.0)
        first = reductions[2].decided_value(0)
        nodes[2].crash()
        sim.run(until=22.0)
        nodes[2].recover()
        sim.run(until=60.0)
        assert reductions[2].decided_value(0) == first

    def test_wait_decided(self):
        sim, nodes, reductions = build(seed=5)
        results = []

        def waiter():
            value = yield from reductions[1].wait_decided(0)
            results.append(value)

        nodes[1].spawn(waiter(), "w")
        for i in range(3):
            sim.schedule(1.0, reductions[i].propose, 0, f"v{i}")
        sim.run(until=20.0)
        assert len(results) == 1

    def test_non_consensus_traffic_ignored(self):
        sim, nodes, reductions = build(seed=6)
        abcast = nodes[0].get_component(BasicAtomicBroadcast)
        sim.schedule(0.5, abcast.submit, ("unrelated", "payload"))
        sim.schedule(0.6, lambda: [reductions[i].propose(0, f"v{i}")
                                   for i in range(3)])
        sim.run(until=20.0)
        assert reductions[0].decided_value(0) in {"v0", "v1", "v2"}


class TestSignalLifecycle:
    def test_decision_releases_waiter_signal(self):
        sim, nodes, reductions = build(seed=4)
        results = []

        def waiter():
            value = yield from reductions[0].wait_decided(0)
            results.append(value)

        nodes[0].spawn(waiter(), "waiter")
        for i in range(3):
            sim.schedule(0.5, reductions[i].propose, 0, "w")
        sim.run(until=30.0)
        assert results == ["w"]
        # The per-instance signal is handed to its waiters and released
        # on decision: the cache must not grow with the instance history.
        assert 0 not in reductions[0]._signals

    def test_wait_after_decision_returns_without_new_signal(self):
        sim, nodes, reductions = build(seed=5)
        for i in range(3):
            sim.schedule(0.5, reductions[i].propose, 0, "w")
        sim.run(until=30.0)
        assert reductions[0].decided_value(0) == "w"
        results = []

        def late_waiter():
            value = yield from reductions[0].wait_decided(0)
            results.append(value)

        nodes[0].spawn(late_waiter(), "late-waiter")
        sim.run(until=31.0)
        assert results == ["w"]
        assert 0 not in reductions[0]._signals
