"""Unit tests for the simulated network (Section 3.1 assumptions)."""

from __future__ import annotations

import random

import pytest

from repro.core.agreed import AgreedQueue
from repro.core.ids import MessageId
from repro.core.messages import AppMessage, StateMessage
from repro.errors import SimulationError
from repro.runtime import Node
from repro.storage.memory import MemoryStorage
from repro.transport.message import MAX_DATAGRAM_BYTES, Packet, WireMessage
from repro.transport.network import Network, NetworkConfig


class Ping(WireMessage):
    type = "test.ping"
    fields = ("value",)

    def __init__(self, value):
        self.value = value


def build(sim, n=2, config=None, seed=0):
    net = Network(sim, random.Random(seed), config or NetworkConfig())
    nodes, received = {}, {i: [] for i in range(n)}
    for i in range(n):
        node = Node(sim, i, MemoryStorage())
        node.start()
        node.register_handler(
            "test.ping",
            lambda m, s, i=i: received[i].append((s, m.value, sim.now)))
        net.register(node)
        nodes[i] = node
    return net, nodes, received


class TestDelivery:
    def test_basic_delivery_with_delay(self, sim):
        net, nodes, received = build(sim)
        net.send(0, 1, Ping("hello"))
        sim.run()
        assert received[1] == [(0, "hello", pytest.approx(sim.now))]
        assert 0.01 <= sim.now <= 0.1  # within the configured delay bounds

    def test_unknown_destination_rejected(self, sim):
        net, _, _ = build(sim)
        with pytest.raises(SimulationError):
            net.send(0, 99, Ping(1))

    def test_channels_are_not_fifo(self, sim):
        """Two messages may be reordered (independent delay draws)."""
        config = NetworkConfig(min_delay=0.01, max_delay=1.0)
        net, nodes, received = build(sim, config=config, seed=3)
        for i in range(20):
            net.send(0, 1, Ping(i))
        sim.run()
        values = [v for _, v, _ in received[1]]
        assert sorted(values) == list(range(20))
        assert values != list(range(20))  # reordering happened

    def test_loopback_is_reliable_and_immediate(self, sim):
        config = NetworkConfig(loss_rate=0.9)
        net, nodes, received = build(sim, config=config, seed=1)
        for _ in range(50):
            net.send(0, 0, Ping("self"))
        sim.run()
        assert len(received[0]) == 50
        assert sim.now == 0.0

    def test_multisend_reaches_all_including_self(self, sim):
        net, nodes, received = build(sim, n=4)
        net.multisend(2, Ping("all"))
        sim.run()
        assert all(len(received[i]) == 1 for i in range(4))

    def test_down_destination_loses_message(self, sim):
        net, nodes, received = build(sim)
        nodes[1].crash()
        net.send(0, 1, Ping(1))
        sim.run()
        assert received[1] == []
        assert net.metrics.dropped_down == 1


class Note(WireMessage):
    """A type no node registers a handler for."""

    type = "test.note"
    fields = ()


class TestStalls:
    """An arrival at a stalled node is deferred, and takes its one fate
    — delivered, unhandled or dropped_down — when presented again."""

    def test_a_deferred_arrival_is_delivered_after_the_stall(self, sim):
        net, nodes, received = build(sim)
        nodes[1].stall(1.0)
        net.send(0, 1, Ping("late"))
        sim.run(until=0.5)
        assert received[1] == [] and net.metrics.delivered == 0
        sim.run()
        assert [value for _, value, _ in received[1]] == ["late"]
        assert received[1][0][2] == pytest.approx(1.0)
        assert net.metrics.delivered == 1

    def test_no_handler_after_a_stall_is_unhandled(self, sim):
        net, nodes, _ = build(sim)
        nodes[1].stall(1.0)
        net.send(0, 1, Note())
        sim.run()
        assert (net.metrics.unhandled, net.metrics.delivered) == (1, 0)

    def test_deferred_past_a_crash_is_dropped_down(self, sim):
        net, nodes, received = build(sim)
        nodes[1].stall(1.0)
        net.send(0, 1, Ping("lost"))
        sim.schedule(0.5, nodes[1].crash)
        sim.run()
        assert received[1] == []
        assert (net.metrics.dropped_down, net.metrics.delivered) == (1, 0)

    def test_a_growing_stall_defers_again(self, sim):
        net, nodes, received = build(sim)
        nodes[1].stall(1.0)
        net.send(0, 1, Ping("later"))
        sim.schedule(0.9, nodes[1].stall, 1.0)
        sim.run()
        assert received[1][0][2] == pytest.approx(2.0)
        assert net.metrics.delivered == 1

    def test_a_rider_takes_its_fate_after_the_stall(self, sim):
        net, nodes, received = build(sim)
        nodes[1].stall(1.0)
        net.send(0, 1, Packet(Ping("carrier"), Note()))
        sim.run()
        assert [value for _, value, _ in received[1]] == ["carrier"]
        assert (net.metrics.delivered, net.metrics.unhandled) == (1, 1)


class TestLossDuplication:
    def test_loss_rate_drops_messages(self, sim):
        config = NetworkConfig(loss_rate=0.5)
        net, nodes, received = build(sim, config=config, seed=2)
        for i in range(200):
            net.send(0, 1, Ping(i))
        sim.run()
        assert 40 < len(received[1]) < 160
        assert net.metrics.lost + net.metrics.delivered == 200

    def test_fair_loss_retransmission_gets_through(self, sim):
        """A message sent repeatedly is eventually received (fairness)."""
        config = NetworkConfig(loss_rate=0.8)
        net, nodes, received = build(sim, config=config, seed=4)
        for _ in range(100):
            net.send(0, 1, Ping("retry"))
        sim.run()
        assert len(received[1]) >= 1

    def test_loss_rate_one_rejected(self):
        with pytest.raises(SimulationError):
            NetworkConfig(loss_rate=1.0)

    def test_duplication(self, sim):
        config = NetworkConfig(duplicate_rate=1.0)
        net, nodes, received = build(sim, config=config, seed=5)
        net.send(0, 1, Ping("dup"))
        sim.run()
        assert len(received[1]) == 2
        assert net.metrics.duplicated == 1

    def test_bad_delay_bounds_rejected(self):
        with pytest.raises(SimulationError):
            NetworkConfig(min_delay=0.5, max_delay=0.1)

    def test_custom_delay_fn(self, sim):
        config = NetworkConfig(delay_fn=lambda rng: 7.0)
        net, nodes, received = build(sim, config=config)
        net.send(0, 1, Ping(1))
        sim.run()
        assert sim.now == 7.0


class TestPartitions:
    def test_partition_blocks_both_directions(self, sim):
        net, nodes, received = build(sim)
        net.partition(0, 1)
        net.send(0, 1, Ping(1))
        net.send(1, 0, Ping(2))
        sim.run()
        assert received[0] == [] and received[1] == []
        assert net.metrics.lost == 2

    def test_heal_restores_link(self, sim):
        net, nodes, received = build(sim)
        net.partition(0, 1)
        net.heal(0, 1)
        net.send(0, 1, Ping(1))
        sim.run()
        assert len(received[1]) == 1

    def test_heal_all(self, sim):
        net, nodes, received = build(sim, n=3)
        net.partition(0, 1)
        net.partition(0, 2)
        net.heal_all()
        assert not net.is_partitioned(0, 1)
        assert not net.is_partitioned(0, 2)

    def test_partition_is_symmetric_key(self, sim):
        net, _, _ = build(sim)
        net.partition(1, 0)
        assert net.is_partitioned(0, 1)


class TestMetrics:
    def test_bytes_accounted(self, sim):
        net, nodes, received = build(sim)
        net.send(0, 1, Ping("x" * 100))
        assert net.metrics.bytes_sent >= 100

    def test_oversize_frame_is_counted_and_delivered(self, sim):
        """A frame no datagram could carry — here an ``ab.state`` of a
        long queue — is counted, and the simulator still delivers it."""
        net, nodes, _ = build(sim)
        got = []
        nodes[1].register_handler("ab.state", lambda m, s: got.append(m))
        queue = AgreedQueue()
        queue.append_batch([AppMessage(MessageId(0, 1, seq), "x" * 100)
                            for seq in range(1, 701)])
        state = StateMessage(9, queue.to_plain())
        assert state.frame_size() > MAX_DATAGRAM_BYTES
        net.send(0, 1, Ping("small"))
        net.send(0, 1, Packet(Ping("carrier"), state))
        sim.run()
        assert net.metrics.oversize == 1
        assert net.metrics.snapshot()["oversize"] == 1
        assert got == [state]

    def test_by_type_counter(self, sim):
        net, nodes, received = build(sim)
        net.send(0, 1, Ping(1))
        net.send(0, 1, Ping(2))
        assert net.metrics.by_type["test.ping"] == 2

    def test_duplicate_registration_rejected(self, sim):
        net, nodes, _ = build(sim)
        with pytest.raises(SimulationError):
            net.register(nodes[0])
