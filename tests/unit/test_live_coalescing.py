"""Unit tests for LiveNetwork's datagram coalescing and oversize guard.

The end-to-end live contract (full clusters over localhost UDP) lives in
tests/integration/; here the medium is exercised directly: a handful of
nodes with real sockets on one loop, so the datagram/frame counters can
be asserted exactly.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.runtime import Node
from repro.runtime.live import LiveRuntime
from repro.runtime.live_net import LiveNetwork, OversizeDatagramError
from repro.runtime.wire import WireConfig
from repro.storage.memory import MemoryStorage
from repro.transport.message import WireMessage


class Ping(WireMessage):
    type = "test.coalesce.ping"
    fields = ("tag",)

    def __init__(self, tag):
        self.tag = tag


def build(wire_config=None, n=2):
    runtime = LiveRuntime(seed=5)
    network = LiveNetwork(runtime, wire_config=wire_config)
    got = []
    for node_id in range(n):
        node = Node(runtime, node_id, MemoryStorage())
        network.register(node)
        node.register_handler(
            Ping.type, lambda m, s, i=node_id: got.append((i, s, m.tag)))
        node.start()
        runtime.loop.run_until_complete(network.open(node_id))
    return runtime, network, got


class TestCoalescing:
    def test_same_turn_sends_share_one_datagram(self):
        runtime, network, got = build()
        try:
            for index in range(5):
                network.send(0, 1, Ping(index))
            runtime.run_for(0.2)
            runtime.check_errors()
            assert sorted(tag for _, _, tag in got) == list(range(5))
            assert network.frames_sent == 5
            assert network.datagrams_sent == 1
            assert network.frames_coalesced == 4
        finally:
            network.close_all()
            runtime.close()

    def test_flush_by_size_bound(self):
        config = WireConfig(max_frame_bytes=64)
        runtime, network, got = build(config)
        try:
            for index in range(8):
                network.send(0, 1, Ping("x" * 40))
            runtime.run_for(0.2)
            runtime.check_errors()
            assert len(got) == 8
            # Each frame is ~60 bytes, so no datagram packed them all.
            assert network.datagrams_sent > 1
        finally:
            network.close_all()
            runtime.close()

    def test_close_drops_buffered_frames(self):
        """Buffered frames are volatile sender state: a crash between
        enqueue and flush must lose them, not leak them to the wire."""
        runtime, network, got = build()
        try:
            network.send(0, 1, Ping("doomed"))
            network.close(0)  # crash before the flush callback runs
            runtime.run_for(0.2)
            runtime.check_errors()
            assert got == []
            assert network.datagrams_sent == 0
        finally:
            network.close_all()
            runtime.close()


class TestOversizeGuard:
    def test_oversize_message_raises_typed_error_and_counts(self):
        config = WireConfig(max_datagram_bytes=512, max_frame_bytes=512)
        runtime, network, got = build(config)
        try:
            lost_before = network.metrics.lost
            with pytest.raises(OversizeDatagramError) as info:
                network.send(0, 1, Ping("y" * 2000))
            assert network.oversize_drops == 1
            assert network.datagrams_sent == 0  # nothing reached a socket
            assert network.metrics.lost == lost_before + 1
            error = info.value
            assert isinstance(error, ReproError)
            assert error.message_type == Ping.type
            assert error.size > error.limit == 512
            # The medium stays usable after the drop.
            network.send(0, 1, Ping("small"))
            runtime.run_for(0.2)
            runtime.check_errors()
            assert got == [(1, 0, "small")]
        finally:
            network.close_all()
            runtime.close()
