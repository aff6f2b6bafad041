"""Unit tests for the binary wire format.

The round-trip fuzz properties live in
tests/property/test_wire_fuzz_properties.py; here we pin the frame
layout itself (header fields, datagram concatenation, the one accepted
lead byte) and the one type-id table: every message class in the
package has its own id, and a class or sender the header cannot carry
is refused, not carried some other way.
"""

from __future__ import annotations

import importlib
import pkgutil
import random

import pytest

import repro
from repro.consensus.paxos import Accept
from repro.core.ids import MessageId
from repro.core.messages import AppMessage, GossipMessage
from repro.runtime import wire, wirefuzz
from repro.runtime.wire import (HEADER, MAGIC, WireCodecError, decode,
                                decode_datagram, encode_frame)
from repro.transport.message import (BY_TYPE_ID, RESERVED_TYPE_IDS,
                                     WireMessage)
from repro.transport.scoped import ScopedMessage

#: The frozen assignment: changing one invalidates every recorded stream.
FROZEN_IDS = {
    "ab.gossip": 1, "ab.state": 2, "fd.alive": 3,
    "paxos.prepare": 7, "paxos.promise": 8, "paxos.accept": 9,
    "paxos.accepted": 10, "paxos.decide": 11, "paxos.nack": 12,
    "paxos.query": 13, "ct.estimate": 14, "ct.propose": 15, "ct.ack": 16,
    "ct.nack": 17, "ct.decide": 18, "seq.forward": 19, "seq.order": 20,
    "seq.resend": 21, "seq.status": 22, "qr.query": 23,
    "qr.query-ack": 24, "qr.store": 25, "qr.store-ack": 26,
    "mg.announce": 27,
}


class Unnumbered(WireMessage):
    """A message class without a type-id: it never crosses the wire."""

    type = "test.wirev2.unnumbered"
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


def package_message_classes():
    """Every WireMessage subclass defined in the package, after importing
    every module of it (each protocol stack included)."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found, stack = [], [WireMessage]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro."):
                found.append(sub)
    return found


class TestFrameLayout:
    def test_header_fields(self):
        frame = encode_frame(7, gossip())
        magic, version, sender, type_id, length = HEADER.unpack_from(frame)
        assert magic == MAGIC
        assert version == 6
        assert sender == 7
        assert type_id == GossipMessage.type_id == 1
        assert length == len(frame) - HEADER.size

    def test_bare_json_datagram_rejected(self):
        """There is one format: a JSON object that is not inside a frame
        is just a datagram with an unknown lead byte."""
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

    def test_an_accept_mixing_messages_and_ids_round_trips(self):
        """An id-form ``Accept`` decodes each id to a plain tuple that
        finds its ``MessageId`` key, as the acceptor's Unordered has it."""
        own = AppMessage(MessageId(2, 1, 9), ("tuple", 7))
        unordered = {own.id: own}
        value = frozenset({AppMessage(MessageId(0, 1, 4), "alpha"), own.id})
        frame = encode_frame(0, Accept(3, 65536, value, 2))
        sender, got = decode(frame)
        assert (sender, got.k, got.ballot, got.commit) == (0, 3, 65536, 2)
        assert wirefuzz.equivalent(Accept(3, 65536, value, 2), got)
        (mid,) = [item for item in got.value
                  if not isinstance(item, AppMessage)]
        assert type(mid) is tuple and unordered[mid] is own
        assert encode_frame(0, got) == frame

    def test_length_field_lie_rejected(self):
        frame = bytearray(encode_frame(0, gossip()))
        with pytest.raises(WireCodecError):
            decode_datagram(bytes(frame[:-3]))  # shorter than declared

    def test_other_versions_and_unknown_ids_rejected(self):
        frame = encode_frame(0, gossip())
        body = frame[HEADER.size:]
        for version in (3, 5, 7):
            stale = HEADER.pack(MAGIC, version, 0, 1, len(body)) + body
            with pytest.raises(WireCodecError, match="version"):
                decode_datagram(stale)
        # No id, the retired retransmission envelopes, an unassigned id.
        for type_id in (0, 4, 5, 6, 999):
            frame = HEADER.pack(MAGIC, 6, 0, type_id, 1) + b"N"
            with pytest.raises(WireCodecError, match="unknown type id"):
                decode_datagram(frame)


class TestTypeIdTable:
    def test_ids_unique_positive_16bit(self):
        """Every message class in the package has its own frozen id and
        the table maps the id back to it; each round-trips."""
        classes = package_message_classes()
        numbered = [cls for cls in classes if cls is not ScopedMessage]
        assert {cls.type: cls.type_id for cls in numbered} == FROZEN_IDS
        assert len(numbered) == len(FROZEN_IDS)
        for cls in numbered:
            assert 0 < cls.type_id < 0x10000
            assert cls.type_id not in RESERVED_TYPE_IDS
            assert BY_TYPE_ID[cls.type_id] is cls
        assert ScopedMessage.type_id is None  # its frame has id 28
        rng = random.Random(48)
        for cls in numbered:
            message = wire.rebuild(cls, wirefuzz.random_fields(cls, rng))
            sender, got = decode(encode_frame(9, message))
            assert sender == 9 and wirefuzz.equivalent(message, got), cls

    def test_register_rejects_conflicts(self):
        """A class is entered into the table when it is defined, so a bad
        id fails there, and the table is left as it was."""
        before = dict(BY_TYPE_ID)
        bad = [1,            # taken by ab.gossip
               0, 28,        # no id; the scoped envelope
               4, 5, 6,      # the retired retransmission envelopes
               0x10000, -1]  # outside the header's 16 bits
        for type_id in bad:
            with pytest.raises(WireCodecError, match="type id"):
                type("Bad", (WireMessage,),
                     {"type": "test.wirev2.bad", "type_id": type_id})
        assert BY_TYPE_ID == before

    def test_subclass_does_not_inherit_the_id(self):
        class Derived(GossipMessage):
            type = "test.wirev2.derived"

        assert Derived.type_id is None
        assert BY_TYPE_ID[1] is GossipMessage
        with pytest.raises(WireCodecError, match="no type_id"):
            encode_frame(0, Derived(1, frozenset()))


class TestRefusedAtEncode:
    def test_class_without_id_is_refused(self):
        with pytest.raises(WireCodecError, match="no type_id"):
            encode_frame(6, Unnumbered((("k", (1, 2)),)))
        # ... also inside a scoped envelope.
        with pytest.raises(WireCodecError, match="no type_id"):
            encode_frame(6, ScopedMessage("g1", Unnumbered("x")))

    def test_sender_must_fit_the_header(self):
        message = gossip()
        assert decode(encode_frame(2 ** 32 - 1, message))[0] == 2 ** 32 - 1
        for sender in (2 ** 32, 2 ** 40, -1):
            with pytest.raises(WireCodecError, match="32 bits"):
                encode_frame(sender, message)
