"""Unit tests for scoped (group-restricted, namespaced) endpoints."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.runtime import Node
from repro.storage.memory import MemoryStorage
from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage
from repro.transport.network import Network, NetworkConfig
from repro.transport.scoped import ScopedEndpoint, ScopedMessage


class Note(WireMessage):
    type = "test.note"
    fields = ("text",)

    def __init__(self, text):
        self.text = text


def build(sim, n=4):
    net = Network(sim, random.Random(0), NetworkConfig())
    nodes, endpoints = {}, {}
    for i in range(n):
        node = Node(sim, i, MemoryStorage())
        endpoints[i] = node.add_component(Endpoint(net))
        net.register(node)
        nodes[i] = node
    for node in nodes.values():
        node.start()
    return net, nodes, endpoints


class TestScoping:
    def test_peers_restricted_to_members(self, sim):
        net, nodes, endpoints = build(sim)
        scoped = ScopedEndpoint(endpoints[1], "g", [0, 1, 2])
        assert scoped.peers() == (0, 1, 2)
        assert scoped.node_id == 1
        assert scoped.node is nodes[1]

    def test_non_member_construction_rejected(self, sim):
        net, nodes, endpoints = build(sim)
        with pytest.raises(SimulationError):
            ScopedEndpoint(endpoints[3], "g", [0, 1, 2])

    def test_empty_scope_name_rejected(self, sim):
        net, nodes, endpoints = build(sim)
        with pytest.raises(SimulationError):
            ScopedEndpoint(endpoints[0], "", [0, 1])

    def test_send_outside_scope_rejected(self, sim):
        net, nodes, endpoints = build(sim)
        scoped = ScopedEndpoint(endpoints[0], "g", [0, 1, 2])
        with pytest.raises(SimulationError):
            scoped.send(3, Note("x"))

    def test_multisend_reaches_members_only(self, sim):
        net, nodes, endpoints = build(sim)
        received = {i: [] for i in range(4)}
        for i in (0, 1, 2):
            member = ScopedEndpoint(endpoints[i], "g", [0, 1, 2])
            member.register("test.note",
                            lambda m, s, i=i: received[i].append(m.text))
        # Node 3 registers the raw type AND would see envelopes only if
        # it registered the scoped type; it gets nothing either way.
        endpoints[3].register("test.note",
                              lambda m, s: received[3].append(m.text))
        sender = ScopedEndpoint(endpoints[0], "g", [0, 1, 2])
        sender.multisend(Note("hi"))
        sim.run()
        assert received[0] == received[1] == received[2] == ["hi"]
        assert received[3] == []


class TestNamespacing:
    def test_two_scopes_do_not_collide(self, sim):
        net, nodes, endpoints = build(sim)
        got = {"a": [], "b": []}
        for scope in ("a", "b"):
            member = ScopedEndpoint(endpoints[1], scope, [0, 1])
            member.register(
                "test.note",
                lambda m, s, scope=scope: got[scope].append(m.text))
        ScopedEndpoint(endpoints[0], "a", [0, 1]).multisend(Note("for-a"))
        ScopedEndpoint(endpoints[0], "b", [0, 1]).multisend(Note("for-b"))
        sim.run()
        assert got == {"a": ["for-a"], "b": ["for-b"]}

    def test_envelope_type_and_size(self, sim):
        inner = Note("payload")
        envelope = ScopedMessage("grp", inner)
        assert envelope.type == "grp::test.note"
        assert envelope.estimated_size() > inner.estimated_size()

    def test_unscoped_traffic_unaffected(self, sim):
        net, nodes, endpoints = build(sim)
        raw, scoped_got = [], []
        endpoints[1].register("test.note", lambda m, s: raw.append(m.text))
        member = ScopedEndpoint(endpoints[1], "g", [0, 1])
        member.register("test.note", lambda m, s: scoped_got.append(m.text))
        endpoints[0].send(1, Note("raw"))
        ScopedEndpoint(endpoints[0], "g", [0, 1]).send(1, Note("scoped"))
        sim.run()
        assert raw == ["raw"]
        assert scoped_got == ["scoped"]
