"""Unit tests for the Chandra-Toueg ◇S consensus (crash-stop substrate)."""

from __future__ import annotations

import random

import pytest

from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.fdetect.heartbeat import HeartbeatDetector
from repro.runtime import Node, Simulator
from repro.storage.memory import MemoryStorage
from repro.transport.endpoint import Endpoint
from repro.transport.network import Network, NetworkConfig
from tests.conftest import tap


class CTCluster:
    """Crash-stop cluster: CT consensus on a reliable network."""

    def __init__(self, n=3, seed=0):
        self.sim = Simulator()
        self.network = Network(self.sim, random.Random(seed),
                               NetworkConfig(loss_rate=0.0))
        self.nodes, self.consensuses, self.detectors = {}, {}, {}
        for i in range(n):
            node = Node(self.sim, i, MemoryStorage())
            endpoint = node.add_component(Endpoint(self.network))
            detector = node.add_component(HeartbeatDetector(endpoint))
            consensus = node.add_component(
                ChandraTouegConsensus(endpoint, detector))
            self.network.register(node)
            self.nodes[i] = node
            self.consensuses[i] = consensus
            self.detectors[i] = detector

    def start(self):
        for node in self.nodes.values():
            node.start()
        return self

    def run(self, until):
        return self.sim.run(until=until)


class TestChandraToueg:
    def test_agreement_failure_free(self):
        cluster = CTCluster(n=3).start()
        for i in range(3):
            cluster.consensuses[i].propose(0, frozenset({f"v{i}"}))
        cluster.run(until=20.0)
        values = [cluster.consensuses[i].decided_value(0) for i in range(3)]
        assert values[0] is not None
        assert values.count(values[0]) == 3

    def test_validity(self):
        cluster = CTCluster(n=3).start()
        for i in range(3):
            cluster.consensuses[i].propose(0, frozenset({f"v{i}"}))
        cluster.run(until=20.0)
        decision = cluster.consensuses[0].decided_value(0)
        assert decision in [frozenset({f"v{i}"}) for i in range(3)]

    def test_first_coordinator_estimate_usually_wins(self):
        """Round 0's coordinator is node 0; in a failure-free run its
        estimate (= its own proposal, the freshest it sees) is decided."""
        cluster = CTCluster(n=3).start()
        for i in range(3):
            cluster.consensuses[i].propose(0, frozenset({f"v{i}"}))
        cluster.run(until=20.0)
        # Not guaranteed by the spec, but deterministic for this engine:
        # documents the rotating-coordinator behaviour.
        assert cluster.consensuses[0].decided_value(0) is not None

    def test_coordinator_crash_rotates(self):
        cluster = CTCluster(n=3, seed=2).start()
        cluster.run(until=3.0)
        cluster.nodes[0].crash()  # round-0 coordinator gone
        for i in (1, 2):
            cluster.consensuses[i].propose(0, frozenset({f"v{i}"}))
        cluster.run(until=60.0)
        v1 = cluster.consensuses[1].decided_value(0)
        v2 = cluster.consensuses[2].decided_value(0)
        assert v1 is not None and v1 == v2

    def test_a_crashed_coordinator_above_the_leader_is_suspected(self):
        # Node 4 goes through rounds 0-2 alone while every beat is lost
        # (so it suspects 0, 1 and 2 in turn) and reaches round 3, whose
        # coordinator 3 is down.  Then beats flow: it trusts node 0
        # again, and Ω alone would stop watching 3.  Nodes 0 and 1 join
        # late and must get past crashed coordinators 2 and 3 as well;
        # the decision needs all three, in round 4.
        cluster = CTCluster(n=5, seed=1)
        sim = cluster.sim
        tap(cluster.network, drop=lambda src, dst, message:
            message.type == "fd.alive" and sim.now < 6.5)
        cluster.start()
        cluster.run(until=0.5)
        cluster.nodes[2].crash()
        cluster.nodes[3].crash()
        cluster.consensuses[4].propose(0, frozenset({"v4"}))
        cluster.run(until=7.0)
        assert cluster.detectors[4].candidates() == [0]     # 0 trusted
        assert cluster.detectors[4].is_suspected(3) is False
        assert 3 in cluster.detectors[4]._last_heard        # still watched
        for i in (0, 1):
            sim.schedule(3.0, cluster.consensuses[i].propose, 0,
                         frozenset({f"v{i}"}))
        cluster.run(until=40.0)
        values = [cluster.consensuses[i].decided_value(0) for i in (0, 1, 4)]
        assert values == [frozenset({"v4"})] * 3

    def test_no_stable_storage_writes(self):
        cluster = CTCluster(n=3).start()
        for i in range(3):
            cluster.consensuses[i].propose(0, frozenset({"v"}))
        cluster.run(until=20.0)
        assert all(node.storage.metrics.log_ops == 0
                   for node in cluster.nodes.values())

    def test_multiple_instances(self):
        cluster = CTCluster(n=3).start()
        for k in range(5):
            for i in range(3):
                cluster.consensuses[i].propose(k, frozenset({(k, i)}))
        cluster.run(until=60.0)
        for k in range(5):
            values = [cluster.consensuses[i].decided_value(k)
                      for i in range(3)]
            assert values[0] is not None and values.count(values[0]) == 3

    def test_minority_crash_tolerated(self):
        cluster = CTCluster(n=5, seed=3).start()
        cluster.run(until=1.0)
        cluster.nodes[4].crash()
        for i in range(4):
            cluster.consensuses[i].propose(0, frozenset({f"v{i}"}))
        cluster.run(until=60.0)
        values = [cluster.consensuses[i].decided_value(0) for i in range(4)]
        assert values[0] is not None and values.count(values[0]) == 4

    def test_idempotent_propose(self):
        cluster = CTCluster(n=3).start()
        cluster.consensuses[0].propose(0, frozenset({"a"}))
        cluster.consensuses[0].propose(0, frozenset({"a"}))
        for i in (1, 2):
            cluster.consensuses[i].propose(0, frozenset({f"v{i}"}))
        cluster.run(until=20.0)
        assert cluster.consensuses[0].decided_value(0) is not None


class TestInstanceGC:
    """Decided instances must not pin their round bookkeeping forever."""

    def test_decided_instance_state_garbage_collected(self):
        cluster = CTCluster(n=3).start()
        for i in range(3):
            cluster.consensuses[i].propose(0, frozenset({"v"}))
        cluster.run(until=20.0)
        for i in range(3):
            consensus = cluster.consensuses[i]
            assert consensus.decided_value(0) is not None
            # Round state (estimates/acks/nacks per round) is dropped...
            assert 0 not in consensus._instances
            # ...and the driver observed the decision and exited rather
            # than hanging on the now-orphaned round signal.
            assert 0 not in consensus._drivers

    def test_late_round_traffic_does_not_resurrect_decided_instance(self):
        from repro.consensus.chandra_toueg import (CTAck, CTEstimate,
                                                   CTNack, CTPropose)
        cluster = CTCluster(n=3).start()
        for i in range(3):
            cluster.consensuses[i].propose(0, frozenset({"v"}))
        cluster.run(until=20.0)
        consensus = cluster.consensuses[0]
        assert 0 not in consensus._instances
        # Straggler round messages for the decided instance arrive late.
        consensus._on_estimate(CTEstimate(0, 7, frozenset({"w"}), 0), 1)
        consensus._on_propose(CTPropose(0, 7, frozenset({"w"})), 1)
        consensus._on_ack(CTAck(0, 7), 1)
        consensus._on_nack(CTNack(0, 7), 2)
        assert 0 not in consensus._instances
        assert consensus.decided_value(0) == frozenset({"v"})
