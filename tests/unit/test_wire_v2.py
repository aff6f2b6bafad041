"""Unit tests for the binary wire format.

The round-trip fuzz properties live in
tests/property/test_wire_fuzz_properties.py; here we pin the frame
layout itself (header fields, type-id table, JSON tunnel, datagram
concatenation, the one accepted lead byte) and the registry-cache fix
that makes unknown-tag lookups O(1).
"""

from __future__ import annotations

import pytest

from repro.core.ids import MessageId
from repro.core.messages import AppMessage, GossipMessage
from repro.runtime import wire
from repro.runtime.wire import (HEADER, MAGIC, TYPE_ID_TABLE, WireCodecError,
                                WireConfig, decode, decode_datagram,
                                encode_frame, register_type_id, type_id_for)
from repro.transport.message import WireMessage


class Tunnelled(WireMessage):
    """A message class with no registered type-id: it must be tunnelled."""

    type = "test.wirev2.tunnelled"
    fields = ("blob",)

    def __init__(self, blob):
        self.blob = blob


def gossip():
    unordered = frozenset({
        AppMessage(MessageId(0, 1, 4), "alpha"),
        AppMessage(MessageId(2, 1, 9), ("tuple", 7)),
    })
    return GossipMessage(5, unordered, ckpt_k=2,
                         known=frozenset(m.id for m in unordered)
                         | {MessageId(1, 1, 1)},
                         want=frozenset({MessageId(1, 2, 3)}))


class TestFrameLayout:
    def test_header_fields(self):
        frame = encode_frame(7, gossip())
        magic, version, sender, type_id, length = HEADER.unpack_from(frame)
        assert magic == MAGIC
        assert version == 3
        assert sender == 7
        assert type_id == TYPE_ID_TABLE["ab.gossip"]
        assert length == len(frame) - HEADER.size

    def test_bare_json_datagram_rejected(self):
        """There is one format: a well-formed tunnel payload that is not
        inside a frame is just a datagram with an unknown lead byte."""
        import repro.fdetect.heartbeat  # noqa: F401 -- defines fd.alive
        with pytest.raises(WireCodecError, match="lead byte"):
            decode_datagram(b'{"s":0,"t":"fd.alive","f":{}}')

    def test_frames_concatenate_into_one_datagram(self):
        datagram = encode_frame(0, gossip()) + encode_frame(1, gossip())
        arrivals = decode_datagram(datagram)
        assert [sender for sender, _ in arrivals] == [0, 1]
        assert all(isinstance(m, GossipMessage) for _, m in arrivals)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WireCodecError):
            decode_datagram(encode_frame(0, gossip()) + b"\x00\x01junk")

    def test_truncated_header_rejected(self):
        frame = encode_frame(0, gossip())
        for cut in range(1, HEADER.size):
            with pytest.raises(WireCodecError):
                decode_datagram(frame[:cut])

    def test_length_field_lie_rejected(self):
        frame = bytearray(encode_frame(0, gossip()))
        with pytest.raises(WireCodecError):
            decode_datagram(bytes(frame[:-3]))  # shorter than declared


class TestJsonTunnel:
    def test_unregistered_class_tunnels_and_round_trips(self):
        assert type_id_for(Tunnelled.type) is None
        frame = encode_frame(6, Tunnelled({"k": [1, 2]}))
        _, _, sender, type_id, _ = HEADER.unpack_from(frame)
        # Tunnel frames zero the header sender; the real sender rides in
        # the JSON payload (it may exceed the header's u32 field).
        assert (sender, type_id) == (0, 0)
        got_sender, got = decode(frame)
        assert got_sender == 6
        assert isinstance(got, Tunnelled)
        assert got.blob == {"k": [1, 2]}

    def test_tunnelled_frame_coalesces_with_typed_frames(self):
        datagram = encode_frame(1, gossip()) + \
            encode_frame(2, Tunnelled("x")) + encode_frame(3, gossip())
        kinds = [type(m).__name__ for _, m in decode_datagram(datagram)]
        assert kinds == ["GossipMessage", "Tunnelled", "GossipMessage"]


class TestTypeIdTable:
    def test_ids_unique_positive_16bit(self):
        ids = list(TYPE_ID_TABLE.values())
        assert len(ids) == len(set(ids))
        assert all(0 < i < 0x10000 for i in ids)  # 0 = JSON tunnel

    def test_register_rejects_conflicts(self):
        with pytest.raises(WireCodecError):
            register_type_id("test.wirev2.new", 1)  # id taken by ab.gossip
        with pytest.raises(WireCodecError):
            register_type_id("ab.gossip", 999)  # tag already assigned
        with pytest.raises(WireCodecError):
            register_type_id("test.wirev2.new", 0)  # reserved
        with pytest.raises(WireCodecError):
            register_type_id("test.wirev2.new", 0x10000)
        for retired in (4, 5, 6):  # the retransmission envelopes
            with pytest.raises(WireCodecError):
                register_type_id("test.wirev2.new", retired)

    def test_reregistering_same_pair_is_noop(self):
        register_type_id("ab.gossip", TYPE_ID_TABLE["ab.gossip"])


class TestWireConfigValidation:
    def test_frame_bound_must_fit_datagram_bound(self):
        with pytest.raises(WireCodecError):
            WireConfig(max_frame_bytes=70000, max_datagram_bytes=65507)
        with pytest.raises(WireCodecError):
            WireConfig(max_frame_bytes=0)
        with pytest.raises(WireCodecError):
            WireConfig(flush_delay=-0.5)


class TestRegistryCache:
    """Unknown-tag lookups must not re-walk the class tree (the original
    defect: every miss rebuilt the registry, so a flood of garbage tags
    cost a full subclass walk per datagram)."""

    @staticmethod
    def _count_rebuilds(monkeypatch):
        """Patch ``wire._walk`` to count registry *rebuilds* (top-level
        walks from WireMessage; the walk recurses through the module
        global, so inner frames must not count)."""
        real_walk = wire._walk
        calls = {"n": 0}

        def counting_walk(cls, into):
            if cls is WireMessage:
                calls["n"] += 1
            return real_walk(cls, into)

        monkeypatch.setattr(wire, "_walk", counting_walk)
        return calls

    def test_unknown_tag_flood_walks_at_most_once(self, monkeypatch):
        calls = self._count_rebuilds(monkeypatch)
        # One rebuild is legitimate here iff another test defined a
        # subclass since the last lookup; what matters is the flood.
        with pytest.raises(WireCodecError):
            wire._lookup("test.wirev2.no-such-tag")
        primed = calls["n"]
        assert primed <= 1
        for index in range(300):
            with pytest.raises(WireCodecError):
                wire._lookup(f"test.wirev2.miss.{index}")
        assert calls["n"] == primed

    def test_new_subclass_triggers_exactly_one_rebuild(self, monkeypatch):
        with pytest.raises(WireCodecError):
            wire._lookup("test.wirev2.prime")  # settle any pending rebuild
        calls = self._count_rebuilds(monkeypatch)

        class Fresh(WireMessage):
            type = "test.wirev2.fresh"
            fields = ()

        assert wire._lookup("test.wirev2.fresh") is Fresh
        assert calls["n"] == 1
        with pytest.raises(WireCodecError):
            wire._lookup("test.wirev2.still-missing")
        assert calls["n"] == 1
