"""Unit tests for scoped (group-restricted, namespaced) endpoints."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.runtime import Node
from repro.storage.stable import StableStorage
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
        node = Node(sim, i, StableStorage())
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


class TestNamespacing:
    def test_two_scopes_do_not_collide(self, sim):
        net, nodes, endpoints = build(sim)
        got = {"a": [], "b": []}
        for scope in ("a", "b"):
            member = ScopedEndpoint(endpoints[1], scope, [0, 1])
            member.register(
                "test.note",
                lambda m, s, scope=scope: got[scope].append(m.text))
        ScopedEndpoint(endpoints[0], "a", [0, 1]).send(1, Note("for-a"))
        ScopedEndpoint(endpoints[0], "b", [0, 1]).send(1, Note("for-b"))
        sim.run()
        assert got == {"a": ["for-a"], "b": ["for-b"]}

    def test_envelope_type_and_size(self, sim):
        inner = Note("payload")
        envelope = ScopedMessage("grp", inner)
        assert envelope.type == "grp::test.note"
        assert envelope.frame_size() > inner.frame_size()

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


class TestEnvelopeOnTheWire:
    """The envelope's frame carries the scope and the inner frame, and
    its charged size is that frame's length."""

    def forms(self):
        from repro.consensus.paxos import Accepted
        from repro.core.ids import MessageId
        from repro.core.messages import AppMessage, GossipMessage
        batch = frozenset({AppMessage(MessageId(0, 1, 2), ("x", 1))})
        return (ScopedMessage("g1", Accepted(3, 5)),
                ScopedMessage("room-é", GossipMessage(
                    4, batch, known=frozenset({MessageId(0, 1, 2)}))))

    def test_round_trips_and_is_charged_its_frame(self):
        from repro.runtime import wire
        for envelope in self.forms():
            frame = wire.encode_frame(7, envelope)
            assert envelope.frame_size() == len(frame)
            sender, got = wire.decode(frame)
            assert sender == 7 and type(got) is ScopedMessage
            assert got.type == envelope.type and got.scope == envelope.scope
            assert type(got.inner) is type(envelope.inner)
            assert got.inner.payload() == envelope.inner.payload()

    def test_coalesces_with_other_frames(self):
        from repro.runtime import wire
        first, second = self.forms()
        datagram = wire.encode_frame(1, first) + \
            wire.encode_frame(2, first.inner) + \
            wire.encode_frame(3, second)
        got = wire.decode_datagram(datagram)
        assert [sender for sender, _ in got] == [1, 2, 3]
        assert [message.type for _, message in got] == \
            [first.type, "paxos.accepted", second.type]

    def test_malformed_envelopes_are_rejected(self):
        from repro.runtime import wire
        envelope = self.forms()[0]
        frame = wire.encode_frame(1, envelope)
        # A nested envelope, a body cut short, and a scope that is no name.
        nested = wire.encode_frame(1, ScopedMessage("outer", envelope))
        header = wire.HEADER.unpack(frame[:wire.HEADER.size])
        short = wire.HEADER.pack(*header[:4], header[4] - 1) + frame[
            wire.HEADER.size:-1]
        body = b"i\x02" + frame[wire.HEADER.size + 4:]
        no_name = wire.HEADER.pack(*header[:4], len(body)) + body
        for bad in (nested, short, no_name):
            with pytest.raises(wire.WireCodecError):
                wire.decode(bad)
