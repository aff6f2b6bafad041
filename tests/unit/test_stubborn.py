"""Unit tests for the stubborn (retransmitting) channel layer."""

from __future__ import annotations

import random

import pytest

from repro.fdetect.heartbeat import HeartbeatDetector
from repro.harness.cluster import Cluster, ClusterConfig
from repro.runtime import Node, Simulator
from repro.runtime import wire
from repro.storage.memory import MemoryStorage
from repro.transport.message import WireMessage
from repro.transport.network import NetworkConfig
from repro.transport.stubborn import (StubbornChannel, StubbornConfig,
                                      StubbornData)
from tests.conftest import tap


class Note(WireMessage):
    type = "test.stub.note"
    fields = ("text",)

    def __init__(self, text):
        self.text = text


class Beat(WireMessage):
    type = "fd.alive"  # same tag as the real heartbeat: must bypass
    fields = ()


class LossyMedium:
    """A fair-loss test double: drops the first ``drop_first`` payloads
    of each message type, then delivers everything (acks always pass)."""

    def __init__(self, sim, drop_first=0):
        self.sim = sim
        self.drop_first = drop_first
        self.dropped = {}
        self.sent_types = []
        self.sent = []
        self.blackhole = False
        self._nodes = {}

    def register(self, node):
        self._nodes[node.node_id] = node

    def node_ids(self):
        return tuple(sorted(self._nodes))

    def send(self, src, dst, message):
        self.sent_types.append(message.type)
        self.sent.append((self.sim.now, message))
        if self.blackhole:
            return
        if message.type == StubbornData.type:
            seen = self.dropped.get(message.type, 0)
            if seen < self.drop_first:
                self.dropped[message.type] = seen + 1
                return
        node = self._nodes.get(dst)
        if node is not None:
            self.sim.call_soon(node.deliver, message, src)

    def multisend(self, src, message):
        for dst in self.node_ids():
            self.send(src, dst, message)


def build_pair(sim, drop_first=0, config=None):
    inner = LossyMedium(sim, drop_first=drop_first)
    channel = StubbornChannel(sim, inner, config or StubbornConfig(),
                              rng=random.Random(7))
    nodes, got = {}, []
    for i in (0, 1):
        node = Node(sim, i, MemoryStorage())
        channel.register(node)
        node.register_handler(Note.type,
                              lambda m, s, i=i: got.append((i, s, m.text)))
        nodes[i] = node
    for node in nodes.values():
        node.start()
    return inner, channel, nodes, got


class TestEnvelope:
    def test_wrap_unwrap_roundtrips_over_the_wire(self):
        envelope = StubbornData(4, Note("payload"))
        raw = wire.encode(0, envelope)
        sender, decoded = wire.decode(raw)
        assert sender == 0
        assert decoded.type == StubbornData.type
        assert decoded.seq == 4
        inner = decoded.inner
        assert isinstance(inner, Note)
        assert inner.text == "payload"

    def test_unwrap_uses_cached_instance_on_the_sim_path(self):
        note = Note("same object")
        envelope = StubbornData(0, note)
        assert envelope.inner is note


class TestRetransmission:
    def test_delivers_through_repeated_loss(self, sim):
        inner, channel, nodes, got = build_pair(sim, drop_first=3)
        channel.send(0, 1, Note("hello"))
        sim.run(until=30)
        assert got == [(1, 0, "hello")]
        assert channel.metrics.data_sent == 1
        assert channel.metrics.retransmissions >= 3
        assert channel.metrics.acks_received == 1
        assert channel.link(0).in_flight(1) == 0

    def test_lossless_path_sends_once(self, sim):
        inner, channel, nodes, got = build_pair(sim)
        channel.send(0, 1, Note("one"))
        sim.run(until=0.1)
        assert got == [(1, 0, "one")]
        assert channel.metrics.retransmissions == 0
        # Retry timer must have been cancelled by the ack.
        sim.run(until=30)
        assert channel.metrics.retransmissions == 0

    def test_duplicate_ack_is_harmless(self, sim):
        inner, channel, nodes, got = build_pair(sim)
        channel.send(0, 1, Note("x"))
        sim.run(until=0.1)
        from repro.transport.stubborn import StubbornAck
        nodes[0].deliver(StubbornAck(0), 1)  # replayed ack
        assert channel.metrics.acks_received == 1
        assert got == [(1, 0, "x")]

    def test_multisend_wraps_every_leg(self, sim):
        inner, channel, nodes, got = build_pair(sim)
        channel.multisend(0, Note("all"))
        sim.run(until=0.5)
        assert sorted(got) == [(0, 0, "all"), (1, 0, "all")]


class TestWindow:
    def test_backlog_beyond_window(self, sim):
        config = StubbornConfig(window=2)
        inner, channel, nodes, got = build_pair(sim, config=config)
        inner.blackhole = True
        for k in range(5):
            channel.send(0, 1, Note(f"m{k}"))
        link = channel.link(0)
        assert link.in_flight(1) == 2
        assert link.backlog(1) == 3
        assert channel.metrics.queued == 3
        inner.blackhole = False
        sim.run(until=60)
        assert sorted(text for _, _, text in got) == \
            [f"m{k}" for k in range(5)]
        assert link.in_flight(1) == 0
        assert link.backlog(1) == 0


class TestBacklogBound:
    def test_backlog_overflow_drops_newest_and_counts(self, sim):
        config = StubbornConfig(window=2, max_backlog=3)
        inner, channel, nodes, got = build_pair(sim, config=config)
        inner.blackhole = True
        for k in range(10):
            channel.send(0, 1, Note(f"m{k}"))
        link = channel.link(0)
        # Window full (2), backlog full (3), the other 5 dropped-newest.
        assert link.in_flight(1) == 2
        assert link.backlog(1) == 3
        assert channel.metrics.queued == 3
        assert channel.metrics.backlog_overflows == 5
        assert channel.metrics.backlog_high_water == 3
        inner.blackhole = False
        sim.run(until=60)
        # Exactly the non-dropped prefix arrives (retransmission jitter
        # may reorder); the drops are ordinary fair-loss losses.
        assert sorted(text for _, _, text in got) == \
            [f"m{k}" for k in range(5)]
        assert link.backlog(1) == 0

    def test_high_water_never_exceeds_bound(self, sim):
        config = StubbornConfig(window=1, max_backlog=2)
        inner, channel, nodes, got = build_pair(sim, config=config)
        inner.blackhole = True
        for wave in range(4):
            for k in range(6):
                channel.send(0, 1, Note(f"w{wave}-{k}"))
        assert channel.metrics.backlog_high_water <= 2
        assert channel.metrics.backlog_overflows == 4 * 6 - 1 - 2

    def test_unbounded_mode_preserves_legacy_behaviour(self, sim):
        config = StubbornConfig(window=2, max_backlog=None)
        inner, channel, nodes, got = build_pair(sim, config=config)
        inner.blackhole = True
        for k in range(50):
            channel.send(0, 1, Note(f"m{k}"))
        assert channel.link(0).backlog(1) == 48
        assert channel.metrics.backlog_overflows == 0
        inner.blackhole = False
        sim.run(until=240)
        assert len(got) == 50


class TestBypassAndLoopback:
    def test_heartbeats_bypass_the_layer(self, sim):
        inner, channel, nodes, got = build_pair(sim)
        channel.send(0, 1, Beat())
        assert inner.sent_types == ["fd.alive"]  # raw, not stub.data
        sim.run(until=5)
        assert channel.metrics.data_sent == 0

    def test_loopback_bypasses_the_layer(self, sim):
        inner, channel, nodes, got = build_pair(sim)
        channel.send(0, 0, Note("self"))
        assert inner.sent_types == [Note.type]
        sim.run(until=1)
        assert got == [(0, 0, "self")]
        assert channel.metrics.data_sent == 0


class TestCrashVolatility:
    def test_crash_cancels_retransmission(self, sim):
        inner, channel, nodes, got = build_pair(sim)
        inner.blackhole = True
        channel.send(0, 1, Note("doomed"))
        sim.run(until=1)
        sent_before = len(inner.sent_types)
        nodes[0].crash()
        assert channel.link(0).in_flight(1) == 0
        inner.blackhole = False
        sim.run(until=30)
        # Stubbornness is per-incarnation: nothing retried after the crash.
        assert len(inner.sent_types) == sent_before
        assert got == []

    def test_recovered_node_sends_fresh_sequences(self, sim):
        inner, channel, nodes, got = build_pair(sim)
        channel.send(0, 1, Note("before"))
        sim.run(until=1)
        nodes[0].crash()
        sim.run(until=2)
        nodes[0].recover()
        channel.send(0, 1, Note("after"))
        sim.run(until=5)
        assert [text for _, _, text in got] == ["before", "after"]


class TestSuspension:
    """On its own evidence: a peer that stops acknowledging is polled
    with its oldest envelope alone, once per ``max_interval``; any ack
    resumes the rest at their next slot.  No failure detector is
    consulted."""

    def test_retries_slow_poll_while_suspected(self, sim):
        config = StubbornConfig(base_interval=0.1, max_interval=0.4,
                                jitter=0.0)
        inner, channel, nodes, got = build_pair(sim, config=config)
        inner.blackhole = True
        for text in ("a", "b", "c"):
            channel.send(0, 1, Note(text))
        sim.run(until=6.05)
        tries = {}
        for when, message in inner.sent:
            tries.setdefault(message.seq, []).append(when)
        # Backoff 0.1, 0.2, then the cap: from there on only seq 0
        # retransmits, once per max_interval.
        assert tries[0][:3] == pytest.approx([0.0, 0.1, 0.3])
        gaps = [b - a for a, b in zip(tries[0][2:], tries[0][3:])]
        assert len(gaps) == 14 and all(gap == pytest.approx(0.4)
                                      for gap in gaps)
        assert tries[1] == tries[2] == pytest.approx([0.0, 0.1])
        # The first ack from the peer (to seq 0's try at 6.3) resumes the
        # others at their next slot, within a poll period.
        inner.blackhole = False
        sim.run(until=7.0)
        assert sorted(text for _, _, text in got) == ["a", "b", "c"]
        assert channel.link(0).in_flight(1) == 0
        resumed = [when for when, message in inner.sent
                   if message.type == StubbornData.type
                   and message.seq in (1, 2) and when > 6.0]
        assert len(resumed) == 2
        assert all(6.3 < when <= 6.3 + 0.4 + 1e-9 for when in resumed)

    def test_an_ack_during_the_poll_resumes_new_sends_too(self, sim):
        config = StubbornConfig(base_interval=0.1, max_interval=0.4,
                                jitter=0.0)
        inner, channel, nodes, got = build_pair(sim, config=config)
        inner.blackhole = True
        channel.send(0, 1, Note("old"))
        sim.run(until=2.0)                  # seq 0 is polling
        channel.send(0, 1, Note("new"))     # launched once, then waits
        sim.run(until=3.0)
        new_tries = [when for when, message in inner.sent
                     if message.seq == 1]
        assert new_tries == pytest.approx([2.0])   # its retries wait
        inner.blackhole = False
        sim.run(until=4.0)
        assert sorted(text for _, _, text in got) == ["new", "old"]


class TestClusterIntegration:
    def test_sim_cluster_with_stubborn_survives_loss(self):
        config = ClusterConfig(
            n=3, seed=5, protocol="basic",
            network=NetworkConfig(loss_rate=0.2),
            stubborn=StubbornConfig(base_interval=0.3))
        cluster = Cluster(config)
        assert cluster.stubborn is not None
        cluster.start()
        for k in range(5):
            cluster.submit(k % 3, f"p{k}")
            cluster.run(until=cluster.sim.now + 0.5)
        assert cluster.settle(within=117.5)
        metrics = cluster.metrics()
        assert metrics.stubborn is not None
        assert metrics.stubborn["data_sent"] > 0
        assert metrics.messages_delivered == 5

    def test_sim_cluster_defaults_to_raw_channel(self):
        cluster = Cluster(ClusterConfig(n=3, seed=0))
        assert cluster.stubborn is None
        assert cluster.medium is cluster.network
        assert cluster.metrics().stubborn is None


class TestLinkLiveness:
    """The detector listens below this layer's envelopes and its send
    clock sits below this layer's backlog."""

    @pytest.mark.parametrize("envelope", [
        StubbornData(7, Note("retransmitted")),
    ], ids=["stub.data"])
    def test_a_retransmitted_envelope_refutes_a_suspicion(self, envelope):
        cluster = Cluster(ClusterConfig(n=3, seed=2, stubborn=True))
        cluster.start()
        cluster.run(until=2.0)
        detector = cluster.nodes[2].get_component(HeartbeatDetector)
        base = detector.timeout_for(0)
        cluster.network.partition(0, 2)
        cluster.run(until=6.0)
        assert detector.is_suspected(0)     # node 2 watches leader 0
        # What node 0's retry timer would put on the healed link.
        assert cluster.nodes[2].deliver(envelope, 0)
        assert not detector.is_suspected(0)
        assert detector.timeout_for(0) == base + detector.timeout_increment

    def test_a_growing_backlog_is_not_a_beat(self):
        cluster = Cluster(ClusterConfig(
            n=3, seed=2, stubborn=StubbornConfig(window=1)))
        seen = tap(cluster.network)     # what reaches the medium
        cluster.start()
        cluster.run(until=2.0)
        cluster.nodes[2].crash()
        crashed_at = cluster.sim.now
        for index in range(40):         # node 0 keeps talking to the dead
            cluster.sim.schedule(0.2 * index, cluster.submit, 0,
                                 f"m{index}")
        cluster.run(until=12.0)
        link = cluster.stubborn.link(0)
        assert link.in_flight(2) == 1 and link.backlog(2) > 0
        # Node 0 never stops *sending* to 2 at this layer, yet the one
        # envelope in flight backs off to seconds between tries; the
        # beats fill exactly those silences.
        period = cluster.nodes[0].get_component(HeartbeatDetector).period
        handed = [(when, message.type) for when, src, dst, message in seen
                  if (src, dst) == (0, 2) and when >= crashed_at]
        times = [when for when, _ in handed]
        assert max(b - a for a, b in zip(times, times[1:])) \
            <= period + 1e-9
        assert sum(kind == "fd.alive" for _, kind in handed) >= 5


def test_simulator_smoke_fixture_alias():
    # Guard: the conftest `sim` fixture and this module agree on the type.
    assert Simulator is not None
