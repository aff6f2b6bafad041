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
from repro.runtime.live_net import (COALESCE_BYTES, LiveNetwork,
                                    OversizeDatagramError)
from repro.storage.stable import StableStorage
from repro.transport.message import MAX_DATAGRAM_BYTES, WireMessage


class Ping(WireMessage):
    type = "test.coalesce.ping"
    type_id = 0xC0A1  # a test-only id, far from the protocols' own
    fields = ("tag",)

    def __init__(self, tag):
        self.tag = tag


def build(n=2):
    runtime = LiveRuntime(seed=5)
    network = LiveNetwork(runtime)
    got = []
    for node_id in range(n):
        node = Node(runtime, node_id, StableStorage())
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
        runtime, network, got = build()
        try:
            # Two 3 KB frames fit the 8 KiB target and a third does not,
            # so eight of them leave in four datagrams; a frame past the
            # target but within a datagram leaves alone.
            ping = Ping("x" * 3000)
            assert 2 * ping.frame_size() <= COALESCE_BYTES \
                < 3 * ping.frame_size()
            for index in range(8):
                network.send(0, 1, ping)
            network.send(0, 1, Ping("z" * 20000))
            runtime.run_for(0.2)
            runtime.check_errors()
            assert len(got) == 9
            assert network.datagrams_sent == 5
            assert network.frames_coalesced == 4
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
        runtime, network, got = build()
        try:
            lost_before = network.metrics.lost
            with pytest.raises(OversizeDatagramError) as info:
                network.send(0, 1, Ping("y" * MAX_DATAGRAM_BYTES))
            assert network.oversize_drops == 1
            assert network.datagrams_sent == 0  # nothing reached a socket
            assert network.metrics.lost == lost_before + 1
            error = info.value
            assert isinstance(error, ReproError)
            assert error.message_type == Ping.type
            assert error.size > error.limit == MAX_DATAGRAM_BYTES
            # The medium stays usable after the drop.
            network.send(0, 1, Ping("small"))
            runtime.run_for(0.2)
            runtime.check_errors()
            assert got == [(1, 0, "small")]
        finally:
            network.close_all()
            runtime.close()
