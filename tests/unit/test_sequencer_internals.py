"""Unit tests for the fixed-sequencer baseline internals."""

from __future__ import annotations

from repro.harness.cluster import Cluster, ClusterConfig
from repro.transport.network import NetworkConfig


def build(seed=0, loss=0.0, sequencer_id=0):
    cluster = Cluster(ClusterConfig(
        n=3, seed=seed, protocol="sequencer",
        network=NetworkConfig(loss_rate=loss),
        sequencer_id=sequencer_id))
    cluster.start()
    return cluster


class TestAssignment:
    def test_sequence_numbers_are_dense_from_one(self):
        cluster = build(seed=1)
        for j in range(5):
            cluster.sim.schedule(0.5 + 0.1 * j, cluster.submit,
                                 j % 3, ("m", j))
        cluster.run(until=10.0)
        sequencer = cluster.abcasts[0]
        assert sorted(sequencer._order_log) == [1, 2, 3, 4, 5]

    def test_duplicate_forward_keeps_original_number(self):
        cluster = build(seed=2)
        cluster.run(until=0.5)
        message = cluster.submit(1, "dup-me")
        cluster.run(until=2.0)
        sequencer = cluster.abcasts[0]
        first_assignment = dict(sequencer._assigned)
        # A retransmitted forward for an already-assigned message must
        # re-announce, not re-assign.
        from repro.baselines.sequencer import ForwardMessage
        sequencer._on_forward(ForwardMessage(message), sender=1)
        assert sequencer._assigned == first_assignment

    def test_non_sequencer_ignores_forwards(self):
        cluster = build(seed=3)
        cluster.run(until=0.5)
        message = cluster.submit(1, "m")
        from repro.baselines.sequencer import ForwardMessage
        bystander = cluster.abcasts[2]
        bystander._on_forward(ForwardMessage(message), sender=1)
        assert bystander._order_log == {}

    def test_custom_sequencer_id(self):
        cluster = build(seed=4, sequencer_id=2)
        for j in range(4):
            cluster.sim.schedule(0.5 + 0.1 * j, cluster.submit, 0,
                                 ("m", j))
        cluster.run(until=10.0)
        assert len(cluster.abcasts[2]._order_log) == 4
        assert cluster.abcasts[0]._order_log == {}
        sequences = [[m.payload for m in ab.deliver_sequence()]
                     for ab in cluster.abcasts.values()]
        assert sequences[0] == sequences[1] == sequences[2]


class TestGapRepair:
    def test_out_of_order_arrivals_held_back(self):
        cluster = build(seed=5)
        cluster.run(until=0.5)
        receiver = cluster.abcasts[1]
        from repro.baselines.sequencer import OrderMessage
        from repro.core.ids import MessageId
        from repro.core.messages import AppMessage
        m1 = AppMessage(MessageId(0, 1, 1), "first")
        m2 = AppMessage(MessageId(0, 1, 2), "second")
        receiver._on_order(OrderMessage(2, m2), sender=0)
        assert receiver.deliver_sequence() == []  # gap: held back
        receiver._on_order(OrderMessage(1, m1), sender=0)
        assert [m.payload for m in receiver.deliver_sequence()] == \
            ["first", "second"]

    def test_stale_order_announcement_ignored(self):
        cluster = build(seed=6)
        for j in range(3):
            cluster.sim.schedule(0.5 + 0.1 * j, cluster.submit, 0,
                                 ("m", j))
        cluster.run(until=5.0)
        receiver = cluster.abcasts[1]
        delivered = receiver.delivered_count()
        from repro.baselines.sequencer import OrderMessage
        stale = OrderMessage(1, receiver.deliver_sequence()[0])
        receiver._on_order(stale, sender=0)
        assert receiver.delivered_count() == delivered

    def test_heavy_loss_converges_eventually(self):
        cluster = build(seed=7, loss=0.4)
        for j in range(8):
            cluster.sim.schedule(0.5 + 0.2 * j, cluster.submit, 2,
                                 ("m", j))
        cluster.run(until=120.0)
        sequences = [[m.payload for m in ab.deliver_sequence()]
                     for ab in cluster.abcasts.values()]
        assert sequences[0] == sequences[1] == sequences[2]
        assert len(sequences[0]) == 8
