"""The message-flow graph, observed in runs: sender → type → handler.

The paper defines its protocols by which messages flow between which
reception handlers (Section 3.1's ``send``/``multisend`` and handler
interface).  This module records that graph from seeded simulator runs
and compares it with the committed ``MSGFLOW.json``, exactly: an edge
that appears or goes away is a change to the protocols' wiring, and is
re-recorded on purpose, with ``>`` in place of ``| diff -``::

    PYTHONPATH=src python -m tests.integration.test_msgflow \\
        | diff - MSGFLOW.json
    PYTHONPATH=src python -m tests.integration.test_msgflow --dot

Each run wraps, per instance, every node's :class:`Endpoint` ``send``
and ``multisend``, its ``deliver``, and the medium's ``send``.  An edge
is ``[sender, tag, op]`` or ``[tag, handler]``:

* the sender is the qualified name of the first caller outside
  ``repro/transport/``, and ``op`` the transport call it made, ``send``
  or ``multisend``;
* a message riding another (:class:`Packet`) is read from the packet
  the medium receives, and its sender is the rider hook that made it
  (op ``rider``): the hook itself is never asked again;
* a frame that reaches the medium without passing through an endpoint
  is an edge of op ``raw``.  It skips the endpoint's down-node check,
  its view scoping and the turn's output commit; the committed graph
  has none;
* a scoped tag is recorded as ``<scope>::<inner tag>``, and its handler
  is the one the scoped endpoint unwraps to.
"""

from __future__ import annotations

import json
import os
import random
import sys
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import pytest

from repro.harness.cluster import Cluster, ClusterConfig
from repro.quorum.register import QuorumRegister
from repro.runtime import Node, SimRuntime
from repro.storage.disk import SimDisk
from repro.storage.stable import StableStorage
from repro.transport.endpoint import Endpoint
from repro.transport.message import Packet, WireMessage
from repro.transport.network import Network, NetworkConfig
from repro.transport.scoped import ScopedMessage
from tests.integration.test_one_size import drive

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir)
TRANSPORT = os.sep + os.path.join("repro", "transport") + os.sep

Graph = Dict[str, List[List[str]]]


def tag_of(message: Any) -> str:
    if type(message) is ScopedMessage:
        return f"<scope>::{message.inner.type}"
    return message.type


def qualname(frame: Any) -> str:
    """The qualified name of the function ``frame`` runs: a method found
    on its ``self``'s classes, else a module-level function."""
    code = frame.f_code
    owner = frame.f_locals.get("self")
    scopes = [vars(cls) for cls in type(owner).__mro__] \
        if owner is not None else []
    for scope in scopes + [frame.f_globals]:
        function = scope.get(code.co_name)
        if getattr(function, "__code__", None) is code:
            return function.__qualname__
    raise AssertionError(f"cannot name the sender {code.co_name!r}")


def sender(frame: Any, op: str) -> Tuple[str, str]:
    """The first caller at or above ``frame`` outside the transport, and
    the transport call it made (``op`` if it called the endpoint)."""
    while TRANSPORT in frame.f_code.co_filename:
        op = frame.f_code.co_name
        frame = frame.f_back
    return qualname(frame), op


def handler_name(handler: Callable[..., Any]) -> str:
    code = getattr(handler, "__code__", None)
    if code is not None and "handler" in code.co_freevars:
        # A scoped endpoint's ``unwrap``: name what it unwraps to.
        cell = handler.__closure__[code.co_freevars.index("handler")]
        handler = cell.cell_contents
    return handler.__qualname__


class Recorder:
    """The edges seen on every medium, node and endpoint it watches."""

    def __init__(self) -> None:
        self.sends: Set[Tuple[str, str, str]] = set()
        self.handlers: Set[Tuple[str, str]] = set()
        # One entry per endpoint send in progress: the rider hook it may
        # ask (``None`` for none).  Empty: a frame reaching the medium
        # is not going through an endpoint.
        self._hooks: List[Optional[Callable[..., Any]]] = []

    def watch(self, network: Network) -> None:
        """Record ``network`` and every node on it, now and later."""
        send, register = network.send, network.register

        def transmitting(src: int, dst: int, frame: Any) -> None:
            if not self._hooks:
                who, _ = sender(sys._getframe(1), "raw")
                self.sends.add((who, tag_of(frame), "raw"))
            elif type(frame) is Packet:
                hook = self._hooks[-1]
                assert hook is not None
                self.sends.add((hook.__qualname__, tag_of(frame.rider),
                                "rider"))
            send(src, dst, frame)

        def registering(node: Node) -> None:
            register(node)
            self._watch_node(node)

        network.send = transmitting
        network.register = registering
        for node in network.nodes.values():
            self._watch_node(node)

    def _watch_node(self, node: Node) -> None:
        deliver = node.deliver

        def delivering(message: Any, src: int) -> Optional[bool]:
            handler = node._handlers.get(message.type)
            consumed = deliver(message, src)
            if consumed:
                self.handlers.add((tag_of(message), handler_name(handler)))
            return consumed

        node.deliver = delivering
        endpoint = node.get_component(Endpoint)
        send, multisend = endpoint.send, endpoint.multisend

        def sending(dst: int, message: Any, rider: Any = None) -> None:
            caller = sys._getframe(1)
            # The endpoint's own hook, or the scoped endpoint's that
            # passed its rider in.
            hook = endpoint.rider if rider is None \
                else caller.f_locals["self"].rider
            self._through(node, hook, send, dst, message, rider)
            who, op = sender(caller, "send")
            self.sends.add((who, tag_of(message), op))

        def multisending(message: Any) -> None:
            self._through(node, None, multisend, message)
            who, op = sender(sys._getframe(1), "multisend")
            self.sends.add((who, tag_of(message), op))

        endpoint.send, endpoint.multisend = sending, multisending

    def _through(self, node: Node, hook: Optional[Callable[..., Any]],
                 call: Callable[..., None], *args: Any) -> None:
        """``call(*args)`` as an endpoint send whose rider ``hook`` may
        ask; what a turn holds back leaves under the same mark."""
        held = len(node.outbox) if node.outbox is not None else 0
        self._hooks.append(hook)
        try:
            call(*args)
        finally:
            self._hooks.pop()
        if node.outbox is not None and len(node.outbox) > held:
            release, release_args = node.outbox[-1]
            node.outbox[-1] = (self._through, (node, hook, release,
                                               *release_args))

    def graph(self) -> Graph:
        return {"handlers": [list(edge) for edge in sorted(self.handlers)],
                "sends": [list(edge) for edge in sorted(self.sends)]}


# -- drivers -----------------------------------------------------------------

def drive_protocols(recorder: Recorder) -> None:
    """``test_one_size``'s runs (a crash and a recovery each), and eager."""
    for protocol in ("basic", "alternative", "eager", "ct", "sequencer",
                     "multigroup"):
        drive(protocol, lambda cluster: recorder.watch(cluster.network))


def drive_faults(recorder: Recorder) -> None:
    """What only faults send: a ``ct.nack`` to a coordinator slow enough
    to be suspected; Paxos's re-sends, ``Nack``s and silent-timeout
    ``Query``s under 30 % loss and a crash of the leader."""
    for protocol, seed, loss in (("ct", 0, 0.0), ("basic", 3, 0.3)):
        cluster = Cluster(ClusterConfig(
            n=3, seed=seed, protocol=protocol,
            network=NetworkConfig(loss_rate=loss)))
        recorder.watch(cluster.network)
        cluster.start()
        for j in range(12):
            cluster.sim.schedule(0.1 + 0.3 * j, cluster.submit, 1 + j % 2,
                                 ("m", j))
        if protocol == "ct":
            cluster.sim.schedule(0.5, cluster.network.set_node_delay, 0,
                                 1.5)
            cluster.sim.schedule(2.5, cluster.network.clear_node_delays)
        else:
            cluster.sim.schedule(1.0, cluster.crash, 0)
            cluster.sim.schedule(2.5, cluster.recover, 0)
        cluster.run(until=8.0)


def drive_membership(recorder: Recorder) -> None:
    """A node joins a running cluster; then one leaves.  Every store
    journals to a disk, so each turn's frames leave from its outbox."""
    cluster = Cluster(ClusterConfig(
        n=3, seed=3, protocol="alternative",
        storage_factory=lambda node_id: StableStorage(SimDisk())))
    recorder.watch(cluster.network)
    cluster.start()
    for j in range(6):
        cluster.sim.schedule(0.1 + 0.2 * j, cluster.submit, 0, ("m", j))
    cluster.sim.schedule(0.5, cluster.add_node)
    cluster.sim.schedule(2.0, cluster.remove_node, 1)
    cluster.run(until=4.0)
    assert cluster.current_view().members == (0, 2, 3)


def drive_register(recorder: Recorder) -> None:
    """A write and a read of a quorum register over a lossy medium."""
    sim = SimRuntime()
    network = Network(sim, random.Random(3), NetworkConfig(loss_rate=0.3))
    recorder.watch(network)
    nodes, registers = [], []
    for node_id in range(3):
        node = Node(sim, node_id, StableStorage())
        endpoint = node.add_component(Endpoint(network))
        registers.append(node.add_component(QuorumRegister(endpoint)))
        network.register(node)
        nodes.append(node)
    for node in nodes:
        node.start()
    nodes[0].spawn(registers[0].write("x"), "write")
    nodes[1].spawn(registers[1].read(), "read")
    sim.run(until=5.0)
    assert registers[0].writes_done == registers[1].reads_done == 1


DRIVERS = (drive_protocols, drive_faults, drive_membership,
           drive_register)


def observe() -> Graph:
    recorder = Recorder()
    for driver in DRIVERS:
        driver(recorder)
    return recorder.graph()


def render(graph: Graph) -> str:
    """``graph`` as JSON, one edge per line."""
    parts = []
    for kind in ("handlers", "sends"):
        edges = ",\n".join("  " + json.dumps(edge) for edge in graph[kind])
        parts.append(f' "{kind}": [\n{edges}\n ]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def render_dot(graph: Graph) -> str:
    lines = ["digraph msgflow {", "  rankdir=LR;",
             '  node [fontname="monospace"];']
    tags = {edge[1] for edge in graph["sends"]} | \
        {edge[0] for edge in graph["handlers"]}
    for tag in sorted(tags):
        lines.append(f'  "msg:{tag}" [shape=box, label="{tag}"];')
    for who, tag, op in graph["sends"]:
        lines.append(f'  "{who}" -> "msg:{tag}" [label="{op}"];')
    for tag, handler in graph["handlers"]:
        lines.append(f'  "msg:{tag}" -> "{handler}";')
    return "\n".join(lines + ["}"]) + "\n"


# -- the gate and the graph's facts ------------------------------------------

@pytest.fixture(scope="module")
def observed() -> Graph:
    return observe()


def sends_of(graph: Graph, tag: str) -> List[List[str]]:
    return [edge for edge in graph["sends"] if edge[1] == tag]


def handlers_of(graph: Graph, tag: str) -> List[List[str]]:
    return [edge for edge in graph["handlers"] if edge[0] == tag]


def test_the_observed_graph_is_the_committed_one(observed):
    with open(os.path.join(ROOT, "MSGFLOW.json"), encoding="utf-8") as handle:
        assert render(observed) == handle.read()


def test_covers_all_five_protocols_and_plumbing(observed):
    # basic/gossip AB, Paxos, Chandra-Toueg, quorum replication,
    # multigroup multicast, sequencer baseline, failure detector.
    tags = {tag for _, tag, _ in observed["sends"]}
    assert {"ab.gossip", "ab.state", "paxos.prepare", "paxos.accept",
            "ct.estimate", "ct.decide", "qr.query", "qr.store",
            "mg.announce", "seq.forward", "fd.alive"} <= tags


def test_multigroup_announce_resolves(observed):
    assert handlers_of(observed, "mg.announce") == [
        ["mg.announce", "MultiGroupMulticast._on_announce"]]
    assert {edge[0] for edge in sends_of(observed, "mg.announce")} == {
        "MultiGroupMulticast._announce_once",
        "MultiGroupMulticast._on_announce"}


def test_scoped_tags_reach_their_inner_handlers(observed):
    # A scoped endpoint unwraps to the handler its inner tag has when
    # it travels unscoped.
    scoped = sorted({tag for _, tag, _ in observed["sends"]
                     if tag.startswith("<scope>::")})
    assert scoped
    for tag in scoped:
        inner = tag[len("<scope>::"):]
        assert [handler for _, handler in handlers_of(observed, tag)] == \
            [handler for _, handler in handlers_of(observed, inner)] != []


def test_no_frame_bypasses_an_endpoint(observed):
    assert [edge for edge in observed["sends"] if edge[2] == "raw"] == []


def test_every_sent_tag_is_handled(observed):
    handled = {tag for tag, _ in observed["handlers"]}
    assert {tag for _, tag, _ in observed["sends"]} <= handled


def test_the_explicit_beat_is_one_send_site(observed):
    # Liveness rides on traffic and only a node that may be watched
    # beats, so the explicit beat is rare; it still has one sender.
    assert sends_of(observed, "fd.alive") == [
        ["HeartbeatDetector._beat_loop", "fd.alive", "send"]]
    assert handlers_of(observed, "fd.alive") == [
        ["fd.alive", "HeartbeatDetector._on_heartbeat"]]


def test_gossip_rides_frames_and_goes_alone_over_a_quiet_link(observed):
    assert sends_of(observed, "ab.gossip") == [
        ["BasicAtomicBroadcast._gossip_once", "ab.gossip", "send"],
        ["BasicAtomicBroadcast._rider", "ab.gossip", "rider"]]
    assert handlers_of(observed, "ab.gossip") == [
        ["ab.gossip", "BasicAtomicBroadcast._on_gossip"]]


def test_paxos_sends_and_multisends_nothing(observed):
    # Its own acceptor answers in-process: every message goes to the
    # other processes only.
    paxos = [edge for edge in observed["sends"]
             if edge[1].startswith("paxos.")]
    assert paxos and [edge for edge in paxos if edge[2] == "multisend"] == []


class Note(WireMessage):
    type = "test.note"


def send_past_the_endpoint(network: Network) -> None:
    network.send(0, 1, Note())


def test_a_frame_sent_past_the_endpoint_is_a_raw_edge():
    sim = SimRuntime()
    network = Network(sim, random.Random(0), NetworkConfig())
    nodes = [Node(sim, node_id, StableStorage()) for node_id in (0, 1)]
    for node in nodes:
        node.add_component(Endpoint(network))
        network.register(node)
        node.start()
    recorder = Recorder()
    recorder.watch(network)
    nodes[1].register_handler(Note.type, lambda message, src: None)
    send_past_the_endpoint(network)
    nodes[0].get_component(Endpoint).send(1, Note())
    sim.run()
    assert recorder.graph() == {
        "handlers": [["test.note", "test_a_frame_sent_past_the_endpoint_"
                      "is_a_raw_edge.<locals>.<lambda>"]],
        "sends": [["send_past_the_endpoint", "test.note", "raw"],
                  ["test_a_frame_sent_past_the_endpoint_is_a_raw_edge",
                   "test.note", "send"]]}


if __name__ == "__main__":
    graph = observe()
    sys.stdout.write(render_dot(graph) if sys.argv[1:] == ["--dot"]
                     else render(graph))
