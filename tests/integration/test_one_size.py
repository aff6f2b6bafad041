"""One size model: the simulator charges each send its frames' length.

A sent message costs the length of its frame in the wire format of
:mod:`repro.runtime.wire`, and a packet the length of its two frames.
Each protocol runs for about two virtual seconds on the simulator, with
a crash and a recovery, while every send is recorded.  The network's
byte count must equal the encoded frames' lengths, and every frame must
decode to a message with the same fields, so the codec also round-trips
everything the simulator sends.  Every message that reaches an up node
must find a handler there: a type that is sent but that nobody
registers for shows as ``NetworkMetrics.unhandled``.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import pytest

from repro.core.messages import AppMessage
from repro.harness.cluster import Cluster, ClusterConfig
from repro.multigroup import MultiGroupCluster
from repro.runtime import wire
from repro.transport.message import WireMessage, unpack

PROTOCOLS = ("basic", "alternative", "ct", "sequencer", "multigroup")


def record_sends(network) -> List[Tuple[int, Any]]:
    sent: List[Tuple[int, Any]] = []
    send = network.send

    def recording(src: int, dst: int, message: Any) -> None:
        sent.append((src, message))
        send(src, dst, message)

    network.send = recording
    return sent


def plain(value: Any) -> Any:
    """``value`` with every message spelled out, so that equality
    compares what a message carries (an ``AppMessage`` compares by id)."""
    if isinstance(value, WireMessage):
        return (type(value).__name__,
                tuple(plain(getattr(value, name)) for name in value.fields))
    if isinstance(value, AppMessage):
        return ("app", tuple(value.id), plain(value.payload))
    if isinstance(value, frozenset):
        return frozenset(plain(item) for item in value)
    if isinstance(value, tuple):
        return tuple(plain(item) for item in value)
    return value


def run(protocol: str):
    """A network after a short run of ``protocol``, and what it sent."""
    cluster, sent = drive(protocol)
    return cluster.network, sent


def drive(protocol: str):
    """A cluster after a short run of ``protocol``, and what it sent."""
    if protocol == "multigroup":
        cluster = MultiGroupCluster({"g1": [0, 1, 2], "g2": [2, 3]}, seed=3)
        submit = lambda node, payload: cluster.multicast(  # noqa: E731
            node, payload, ["g1", "g2"] if node == 2 else ["g1"])
        crash = None
    else:
        cluster = Cluster(ClusterConfig(n=3, seed=3, protocol=protocol))
        submit = cluster.submit
        crash = cluster.nodes[1]
    sent = record_sends(cluster.network)
    cluster.start()
    for j in range(12):
        cluster.sim.schedule(0.1 + 0.12 * j, submit, j % 2 * 2, ("m", j))
    if crash is not None:
        cluster.sim.schedule(0.7, crash.crash)
        cluster.sim.schedule(1.3, crash.recover)
    cluster.run(until=2.0)
    return cluster, sent


@pytest.fixture(scope="module", params=PROTOCOLS)
def ran(request):
    return run(request.param)


def test_bytes_sent_are_the_encoded_frames(ran):
    network, sent = ran
    assert len(sent) > 50 and network.metrics.sent == len(sent)
    framed = 0
    for src, message in sent:
        for part in unpack(message):
            frame = wire.encode_frame(src, part)
            framed += len(frame)
            sender, decoded = wire.decode(frame)
            assert sender == src and plain(decoded) == plain(part)
    assert network.metrics.bytes_sent == framed


def test_every_arrival_finds_a_handler(ran):
    network, _ = ran
    assert network.metrics.delivered > 50
    assert network.metrics.unhandled == 0
