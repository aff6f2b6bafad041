"""Tests for the whole-program message-flow graph (``msgflow``).

Two layers: synthetic-source unit tests for each send/handler resolution
shape (constructor, local, factory, helper, rider, opaque, dynamic tag,
f-string pattern), and full-tree tests asserting the graph covers every protocol
the repo implements — all five broadcast/consensus stacks, the
failure-detector plumbing, and the membership layer's kind-string
reconfig dispatch.
"""

from __future__ import annotations

import ast
import json
import os
import textwrap

import pytest

from repro.analysis.engine import ModuleContext, ProjectContext
from repro.analysis.msgflow import (build_msgflow, build_msgflow_for_paths,
                                    render_msgflow, write_msgflow)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, os.pardir, "src", "repro")


def graph_of(extra: str = "", module: str = "repro.core.fixture"):
    # BASE and the snippet carry different literal indentation; dedent
    # each before concatenating or the snippet nests inside BASE.
    text = textwrap.dedent(BASE) + textwrap.dedent(extra)
    ctx = ModuleContext(module, "fixture.py", ast.parse(text), text)
    return build_msgflow(ProjectContext([ctx]))


BASE = """
    class WireMessage:
        type = "wire.base"

    class Ping(WireMessage):
        type = "fx.ping"
        fields = ("payload",)

        def __init__(self, payload):
            self.payload = payload

        @classmethod
        def wrap(cls, payload):
            return cls(payload)
"""


class TestSendResolution:
    def test_inline_constructor(self):
        graph = graph_of("""
            class Proto:
                def poke(self):
                    self.endpoint.send(1, Ping("x"))
        """)
        edge, = graph.senders_for("fx.ping")
        assert edge.resolved == "constructor"
        assert edge.sender == "Proto.poke"
        assert edge.op == "send"

    def test_local_assigned_from_constructor(self):
        graph = graph_of("""
            class Proto:
                def poke(self):
                    note = Ping("x")
                    self.endpoint.multisend(note)
        """)
        edge, = graph.senders_for("fx.ping")
        assert edge.resolved == "local"
        assert edge.op == "multisend"

    def test_classmethod_factory(self):
        graph = graph_of("""
            class Proto:
                def poke(self):
                    self.channel.inner.send(0, 1, Ping.wrap("x"))
        """)
        edge, = graph.senders_for("fx.ping")
        assert edge.resolved == "factory"

    def test_own_method_returning_one_class(self):
        graph = graph_of("""
            class Proto:
                def _build(self, peer):
                    if peer is None:
                        return None
                    return Ping(peer)

                def poke(self):
                    self.endpoint.send(1, self._build(1))
                    note = self._build(2)
                    self.endpoint.send(2, note)
        """)
        assert sorted(e.resolved for e in graph.senders_for("fx.ping")) \
            == ["helper", "local"]

    def test_a_wired_rider_is_a_send_of_what_it_returns(self):
        graph = graph_of("""
            class Proto:
                def on_start(self):
                    self.endpoint.rider = self._ride
                    self.registry.rider = self._other   # not a transport

                def _ride(self, dst):
                    return self._build(dst)

                def _build(self, dst):
                    return Ping(dst)

                def _other(self, dst):
                    return Ping(dst)
        """)
        edge, = graph.senders_for("fx.ping")
        assert (edge.sender, edge.op, edge.resolved) == \
            ("Proto._ride", "rider", "helper")

    def test_forwarded_parameter_is_opaque(self):
        graph = graph_of("""
            class Proto:
                def forward(self, message):
                    self.endpoint.send(1, message)
        """)
        assert graph.senders_for("fx.ping") == []
        edge, = graph.sends
        assert edge.resolved == "opaque"
        assert edge.tag is None

    def test_dynamic_tag_class(self):
        graph = graph_of("""
            class Scoped(WireMessage):
                def __init__(self, scope, inner):
                    self.type = scope + "::" + inner.type
                    self.inner = inner

            class Proto:
                def poke(self):
                    self.endpoint.send(1, Scoped("s", Ping("x")))
        """)
        assert [m.class_name for m in graph.dynamic_messages] == ["Scoped"]
        dynamic = [e for e in graph.sends if e.resolved == "dynamic"]
        assert len(dynamic) == 1
        assert dynamic[0].class_name == "Scoped"


class TestHandlerResolution:
    def test_type_attribute_registration(self):
        graph = graph_of("""
            class Proto:
                def on_start(self):
                    self.endpoint.register(Ping.type, self._on_ping)

                def _on_ping(self, msg, sender):
                    pass
        """)
        edge, = graph.handlers_for("fx.ping")
        assert edge.handler == "Proto._on_ping"

    def test_string_literal_registration(self):
        graph = graph_of("""
            class Proto:
                def on_start(self):
                    self.node.register_handler("fx.ping", self._on_ping)

                def _on_ping(self, msg, sender):
                    pass
        """)
        edge, = graph.handlers_for("fx.ping")
        assert edge.via == "register_handler"
        assert edge.class_name == "Ping"

    def test_fstring_registration_becomes_pattern(self):
        graph = graph_of("""
            class Proto:
                def attach(self, msg_type, handler):
                    self.endpoint.register(
                        f"{self.scope}::{msg_type}", handler)
        """)
        assert graph.handled_tags() == frozenset()
        pattern, = [e for e in graph.handlers if e.pattern is not None]
        assert pattern.pattern == "{*}::{*}"
        assert graph.has_dynamic_registrations()

    def test_graph_is_cached_on_the_project(self):
        text = textwrap.dedent(BASE)
        ctx = ModuleContext("repro.core.fixture", "fixture.py",
                            ast.parse(text), text)
        project = ProjectContext([ctx])
        assert build_msgflow(project) is build_msgflow(project)


class TestFullTreeGraph:
    @pytest.fixture(scope="class")
    def graph(self):
        return build_msgflow_for_paths([SRC])

    def test_covers_all_five_protocols_and_plumbing(self, graph):
        tags = set(graph.messages)
        # basic/gossip AB, Paxos, Chandra-Toueg, quorum replication,
        # multigroup multicast, sequencer baseline, failure detector.
        assert {"ab.gossip", "ab.state", "paxos.prepare", "paxos.accept",
                "ct.estimate", "ct.decide", "qr.query", "qr.store",
                "mg.announce", "seq.forward", "fd.alive"} <= tags

    def test_every_static_tag_is_handled(self, graph):
        # Every sent tag has a handler, and every handled tag a
        # producer: no type is sent that nobody receives, and no handler
        # waits for a type that nothing builds.
        sent = graph.sent_tags()
        alive = sent | graph.constructed_tags()
        handled = graph.handled_tags()
        assert sent <= handled
        assert handled <= alive

    def test_gossip_is_unicast_and_the_decision_pull_is_modelled(self,
                                                               graph):
        # Per-peer digests: no multisend of a GossipMessage is left.
        # The tick unicasts on a quiet link; elsewhere gossip rides the
        # frames already going to a peer.
        gossip = graph.senders_for("ab.gossip")
        assert sorted((e.sender, e.op) for e in gossip) == \
            [("BasicAtomicBroadcast._gossip_once", "send"),
             ("BasicAtomicBroadcast._rider", "rider")]
        # Decide leaves from one place, to the other processes — by
        # reference, which is why it carries a ballot, and the next
        # Prepare's flag — plus the by-value replies to stale traffic;
        # no acceptor path answers an Accept with one.  Paxos multisends
        # nothing.  The pull it relies on is a unicast Query.
        assert graph.messages["paxos.decide"].fields == \
            ("k", "ballot", "value", "prepare_next")
        decides = {(e.sender, e.op)
                   for e in graph.senders_for("paxos.decide")}
        assert decides == {("PaxosConsensus._announce", "send"),
                           ("PaxosConsensus._reply_decided", "send")}
        assert not [e for e in graph.sends if e.op == "multisend"
                    and e.tag is not None and e.tag.startswith("paxos.")]
        assert [e.handler for e in graph.handlers_for("paxos.decide")] == \
            ["PaxosConsensus._on_decide"]
        queries = {(e.sender, e.op)
                   for e in graph.senders_for("paxos.query")}
        assert ("PaxosConsensus.pull_decision", "send") in queries

    def test_the_explicit_beat_keeps_one_send_site_and_one_handler(self,
                                                                   graph):
        # Liveness rides on every arrival, so ``fd.alive`` is rare at
        # run time; the graph must still know the one place it leaves
        # from (a unicast per silent link) and the one that reads it.
        assert [(e.sender, e.op) for e in graph.senders_for("fd.alive")] \
            == [("HeartbeatDetector._beat_loop", "send")]
        assert [e.handler for e in graph.handlers_for("fd.alive")] == \
            ["HeartbeatDetector._on_heartbeat"]

    def test_multigroup_announce_resolves(self, graph):
        handlers = graph.handlers_for("mg.announce")
        assert [e.handler for e in handlers] == \
            ["MultiGroupMulticast._on_announce"]
        senders = {e.sender for e in graph.senders_for("mg.announce")}
        assert senders == {"MultiGroupMulticast._announce_once",
                           "MultiGroupMulticast._on_announce"}

    def test_membership_reconfig_commands_resolve(self, graph):
        assert set(graph.commands) == {"join", "leave", "evict"}
        for op, parts in graph.commands.items():
            producers = {site.module for site in parts["producers"]}
            consumers = {site.module for site in parts["consumers"]}
            assert producers, op
            assert "repro.membership.manager" in consumers, op

    def test_scoped_message_is_dynamic_with_pattern_registration(self,
                                                                 graph):
        assert "ScopedMessage" in \
            [m.class_name for m in graph.dynamic_messages]
        assert graph.has_dynamic_registrations()


class TestEmission:
    def test_write_json_artifact(self, tmp_path):
        out = tmp_path / "msgflow.json"
        graph = write_msgflow([SRC], str(out))
        data = json.loads(out.read_text(encoding="utf-8"))
        assert set(data) == {"messages", "dynamic_messages", "sends",
                             "constructions", "handlers", "commands"}
        assert len(data["messages"]) == len(graph.messages)
        tags = {record["tag"] for record in data["messages"]}
        assert "ab.gossip" in tags
        assert {"join", "leave", "evict"} <= set(data["commands"])

    def test_write_dot_artifact(self, tmp_path):
        out = tmp_path / "msgflow.dot"
        write_msgflow([SRC], str(out))
        text = out.read_text(encoding="utf-8")
        assert text.startswith("digraph msgflow {")
        assert text.rstrip().endswith("}")
        assert '"msg:ab.gossip"' in text
        assert '"cmd:reconfig:join"' in text

    def test_render_defaults_to_json(self):
        graph = graph_of()
        assert render_msgflow(graph, "out.json").startswith("{")
        assert render_msgflow(graph, "out.dot").startswith("digraph")
