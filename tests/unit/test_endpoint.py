"""Unit tests for the per-node transport endpoint."""

from __future__ import annotations

import random

import pytest

from repro.errors import ProcessDown
from repro.runtime import Node
from repro.storage.stable import StableStorage
from repro.transport.endpoint import DEFAULT_QUEUE_CAPACITY, Endpoint
from repro.transport.message import WireMessage
from repro.transport.network import Network, NetworkConfig


class Note(WireMessage):
    type = "test.note"
    fields = ("text",)

    def __init__(self, text):
        self.text = text


def build(sim, n=2):
    net = Network(sim, random.Random(0), NetworkConfig())
    nodes, endpoints = {}, {}
    for i in range(n):
        node = Node(sim, i, StableStorage())
        endpoints[i] = node.add_component(Endpoint(net))
        net.register(node)
        nodes[i] = node
    for node in nodes.values():
        node.start()
    return net, nodes, endpoints


class TestSending:
    def test_send_reaches_handler(self, sim):
        net, nodes, endpoints = build(sim)
        got = []
        endpoints[1].register("test.note",
                              lambda m, s: got.append((s, m.text)))
        endpoints[0].send(1, Note("hi"))
        sim.run()
        assert got == [(0, "hi")]

    def test_multisend_includes_self(self, sim):
        net, nodes, endpoints = build(sim, n=3)
        got = {i: [] for i in range(3)}
        for i in range(3):
            endpoints[i].register("test.note",
                                  lambda m, s, i=i: got[i].append(m.text))
        endpoints[0].multisend(Note("x"))
        sim.run()
        assert all(got[i] == ["x"] for i in range(3))

    def test_send_from_down_node_rejected(self, sim):
        net, nodes, endpoints = build(sim)
        nodes[0].crash()
        with pytest.raises(ProcessDown):
            endpoints[0].send(1, Note("no"))
        with pytest.raises(ProcessDown):
            endpoints[0].multisend(Note("no"))

    def test_peers_lists_everyone(self, sim):
        net, nodes, endpoints = build(sim, n=4)
        assert endpoints[0].peers() == (0, 1, 2, 3)
        assert endpoints[2].node_id == 2


class TestReceiveQueue:
    def test_blocking_receive(self, sim):
        net, nodes, endpoints = build(sim)
        queue = endpoints[1].subscribe_queue("test.note")
        got = []

        def consumer():
            message, sender = yield from queue.receive()
            got.append((sender, message.text))

        nodes[1].spawn(consumer(), "consumer")
        sim.run(until=0.5)
        assert got == []  # blocked: nothing sent yet
        endpoints[0].send(1, Note("later"))
        sim.run()
        assert got == [(0, "later")]

    def test_queue_buffers_messages(self, sim):
        net, nodes, endpoints = build(sim)
        queue = endpoints[1].subscribe_queue("test.note")
        endpoints[0].send(1, Note("a"))
        endpoints[0].send(1, Note("b"))
        sim.run()
        assert len(queue) == 2

    def test_queue_capacity_drops_overflow(self, sim):
        net, nodes, endpoints = build(sim)
        queue = endpoints[1].subscribe_queue("test.note", capacity=2)
        for text in ("a", "b", "c", "d"):
            endpoints[0].send(1, Note(text))
        sim.run()
        assert len(queue) == 2
        assert queue.overflows == 2

    def test_queue_admits_again_after_drain(self, sim):
        net, nodes, endpoints = build(sim)
        queue = endpoints[1].subscribe_queue("test.note", capacity=1)
        got = []

        def consumer():
            message, _ = yield from queue.receive()
            got.append(message.text)

        endpoints[0].send(1, Note("a"))
        endpoints[0].send(1, Note("b"))
        sim.run()
        # One admitted (delivery order at the same instant is up to the
        # network), one dropped.
        assert len(queue) == 1
        assert queue.overflows == 1
        nodes[1].spawn(consumer(), "consumer")
        sim.run()
        endpoints[0].send(1, Note("after-drain"))
        sim.run()
        assert got in (["a"], ["b"])
        assert len(queue) == 1  # freed slot admits the new message
        assert queue.overflows == 1

    def test_queue_bounded_by_default_unbounded_on_request(self, sim):
        net, nodes, endpoints = build(sim)
        bounded = endpoints[1].subscribe_queue("test.note")
        unbounded = endpoints[1].subscribe_queue("test.other",
                                                 capacity=None)
        for i in range(DEFAULT_QUEUE_CAPACITY + 3):
            bounded.deposit(Note(str(i)), 0)
            unbounded.deposit(Note(str(i)), 0)
        assert len(bounded) == DEFAULT_QUEUE_CAPACITY
        assert bounded.overflows == 3
        assert len(unbounded) == DEFAULT_QUEUE_CAPACITY + 3
        assert unbounded.overflows == 0

    def test_queue_is_volatile(self, sim):
        net, nodes, endpoints = build(sim)
        queue = endpoints[1].subscribe_queue("test.note")
        endpoints[0].send(1, Note("lost"))
        sim.run()
        nodes[1].crash()
        nodes[1].recover()
        # The old queue object is detached and the registration gone.
        endpoints[0].send(1, Note("after"))
        sim.run()
        assert len(queue) == 1  # only the pre-crash message
