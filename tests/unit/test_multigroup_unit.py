"""Unit-level tests for the multi-group multicast internals."""

from __future__ import annotations

import random

import pytest

from repro.fdetect.heartbeat import Heartbeat, HeartbeatDetector
from repro.multigroup import MultiGroupCluster
from repro.multigroup.multicast import TimestampAnnounce
from repro.runtime import Node, SimRuntime
from repro.storage.stable import StableStorage
from repro.transport.endpoint import Endpoint
from repro.transport.network import Network, NetworkConfig
from repro.transport.scoped import ScopedEndpoint, ScopedMessage
from tests.conftest import tap


def build(groups=None, seed=0):
    cluster = MultiGroupCluster(
        groups or {"g1": [0, 1, 2], "g2": [2, 3, 4]}, seed=seed,
        network=NetworkConfig(loss_rate=0.0))
    cluster.start()
    return cluster


class TestClockDeterminism:
    def test_group_clocks_agree_across_members(self):
        cluster = build(seed=1)
        for j in range(6):
            cluster.sim.schedule(0.5 + 0.2 * j, cluster.multicast,
                                 2, f"x{j}", ["g1", "g2"])
        cluster.run(until=40.0)
        clocks_g1 = {cluster.layers[i].clock["g1"] for i in (0, 1, 2)}
        clocks_g2 = {cluster.layers[i].clock["g2"] for i in (2, 3, 4)}
        assert len(clocks_g1) == 1
        assert len(clocks_g2) == 1

    def test_final_timestamps_identical_everywhere(self):
        cluster = build(seed=2)
        mids = []
        cluster.sim.schedule(
            0.5, lambda: mids.append(
                cluster.multicast(2, "x", ["g1", "g2"])))
        cluster.run(until=30.0)
        finals = set()
        for node_id in range(5):
            entry = cluster.layers[node_id].pending.get(mids[0])
            if entry is not None and entry.final is not None:
                finals.add(entry.final)
        assert len(finals) == 1

    def test_announce_cannot_poison_own_group_proposal(self):
        """A forged announcement must not pre-assign a proposal for a
        group the receiver belongs to (the clock-determinism guard)."""
        cluster = build(seed=3)
        cluster.run(until=0.5)
        layer = cluster.layers[0]  # member of g1
        forged = TimestampAnnounce((((9, 1, 1), ("g1", "g2"), "evil",
                                     (("g1", 42), ("g2", 7))),))
        layer._on_announce(forged, sender=3)
        entry = layer.pending[(9, 1, 1)]
        assert "g1" not in entry.proposed      # own group: AB order only
        assert entry.proposed.get("g2") == 7   # foreign group: accepted


class TestDeliveryRule:
    def test_single_group_fast_path_needs_no_exchange(self):
        cluster = build({"g": [0, 1, 2]}, seed=4)
        cluster.sim.schedule(0.5, cluster.multicast, 0, "solo", ["g"])
        cluster.run(until=15.0)
        layer = cluster.layers[1]
        assert [p for _, p in layer.delivered_in("g")] == ["solo"]
        # No cross-group announcements were ever needed.
        assert cluster.network.metrics.by_type.get(
            TimestampAnnounce.type, 0) == 0

    def test_holdback_blocks_until_finalized(self):
        """A cross-group message proposed earlier must be delivered
        before later single-group messages once its final arrives, if
        its final timestamp is smaller."""
        cluster = build(seed=5)
        cluster.sim.schedule(0.5, cluster.multicast, 2, "cross",
                             ["g1", "g2"])
        cluster.sim.schedule(0.6, cluster.multicast, 0, "local", ["g1"])
        cluster.run(until=30.0)
        order = [p for _, p in cluster.layers[1].delivered_in("g1")]
        assert set(order) == {"cross", "local"}
        # Whatever the order, it is the same at every member.
        for member in (0, 2):
            assert [p for _, p in
                    cluster.layers[member].delivered_in("g1")] == order

    def test_mdelivered_count(self):
        cluster = build(seed=6)
        cluster.sim.schedule(0.5, cluster.multicast, 2, "x",
                             ["g1", "g2"])
        cluster.run(until=30.0)
        # Node 2 is in both groups: it delivers the message twice (once
        # per group), the pure members once each.
        assert cluster.layers[2].mdelivered_count == 2
        assert cluster.layers[0].mdelivered_count == 1


class TestListener:
    def test_listener_upcalls(self):
        from repro.multigroup.multicast import MulticastListener

        class Recorder(MulticastListener):
            def __init__(self):
                self.events = []

            def on_mdeliver(self, group, mid, payload):
                self.events.append((group, payload))

        cluster = build(seed=7)
        recorder = Recorder()
        cluster.layers[2].add_listener(recorder)
        cluster.sim.schedule(0.5, cluster.multicast, 2, "x",
                             ["g1", "g2"])
        cluster.run(until=30.0)
        assert sorted(recorder.events) == [("g1", "x"), ("g2", "x")]


class TestSharedLinkLiveness:
    """Liveness belongs to the link between two nodes, not to a group
    stack: every detector on a node hears every arrival, and the send
    clock is the node's."""

    GROUPS = {"g1": [0, 1, 2], "g2": [0, 1, 3]}     # 0 <-> 1 in both

    @staticmethod
    def detectors(cluster, node_id):
        return [component for component
                in cluster.nodes[node_id].components
                if isinstance(component, HeartbeatDetector)]

    def test_two_groups_on_one_link_emit_one_beat_stream(self):
        # Two scoped detectors per node and nothing else, so the link
        # carries explicit beats only.  Node 0 leads both groups, so it
        # beats for both; node 1 follows in both and never beats.
        sim = SimRuntime()
        network = Network(sim, random.Random(0), NetworkConfig())
        seen = tap(network)
        detectors = {}
        for node_id in (0, 1):
            node = Node(sim, node_id, StableStorage())
            endpoint = node.add_component(Endpoint(network))
            for group in ("g1", "g2"):
                detector = node.add_component(HeartbeatDetector(
                    ScopedEndpoint(endpoint, group, (0, 1))))
                detectors[node_id, group] = detector
            network.register(node)
        for node in network.nodes.values():
            node.start()
        sim.run(until=10.0)
        period = detectors[0, "g1"].period
        beats = [src for _, src, _, message in seen
                 if message.type.endswith("::" + Heartbeat.type)]
        # One stream from the leader — per (node, group) would be twice
        # it, and all-links monitoring twice again.
        assert set(beats) == {0}
        assert len(beats) == pytest.approx(10.0 / period, abs=2)
        assert all(d.suspects() == set() for d in detectors.values())

    def test_every_stack_hears_the_other_groups_traffic(self):
        cluster = build(self.GROUPS)
        cluster.run(until=3.0)
        g1, g2 = self.detectors(cluster, 1)     # both watch leader 0
        for detector in (g1, g2):
            detector._suspects.add(0)
        # One g1 message from node 0 clears both stacks' suspicion.
        assert cluster.nodes[1].deliver(
            ScopedMessage("g1", Heartbeat()), 0)
        assert g1.suspects() == g2.suspects() == set()
        assert g1.timeout_for(0) > g1.initial_timeout
        assert g2.timeout_for(0) > g2.initial_timeout
        # Node 3 is g2's peer only: g1's detector cannot watch it.
        g1.watch(3)
        g2.watch(3)
        assert 3 not in g1._last_heard and 3 in g2._last_heard

    def test_listeners_come_back_with_the_node(self):
        cluster = build(self.GROUPS)
        cluster.run(until=3.0)
        cluster.nodes[0].crash()
        assert cluster.nodes[0]._arrival_listeners == []
        cluster.run(until=4.0)
        cluster.nodes[0].recover()
        assert len(cluster.nodes[0]._arrival_listeners) == 2
        cluster.run(until=20.0)
        for node_id in cluster.nodes:
            for detector in self.detectors(cluster, node_id):
                assert detector.suspects() == set()
