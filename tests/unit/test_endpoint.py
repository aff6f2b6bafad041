"""Unit tests for the per-node transport endpoint."""

from __future__ import annotations

import random

import pytest

from repro.errors import ProcessDown
from repro.runtime import Node
from repro.storage.stable import StableStorage
from repro.transport.endpoint import Endpoint
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

