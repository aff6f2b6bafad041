"""Unit tests for the Atomic Broadcast wire-message model."""

from __future__ import annotations

from repro.core.agreed import AgreedQueue
from repro.core.ids import MessageId
from repro.core.messages import AppMessage, GossipMessage, StateMessage
from repro.storage import codec


def msg(seq, payload=None):
    return AppMessage(MessageId(0, 1, seq), payload)


class TestGossipMessage:
    def test_fields_and_type(self):
        known = frozenset({msg(1).id, msg(2).id})
        want = frozenset({msg(3).id})
        gossip = GossipMessage(5, frozenset({msg(1)}), ckpt_k=3,
                               known=known, want=want, floor=2)
        assert gossip.type == "ab.gossip"
        assert gossip.k == 5
        assert gossip.ckpt_k == 3
        assert gossip.floor == 2
        assert gossip.payload() == (5, frozenset({msg(1)}), 3, known, want,
                                    2)

    def test_digest_and_pull_default_to_empty(self):
        gossip = GossipMessage(5, frozenset({msg(1)}))
        assert gossip.known == frozenset() and gossip.want == frozenset()

    def test_no_digest_is_not_an_empty_digest(self):
        bare = GossipMessage(5, frozenset(), known=None)
        empty = GossipMessage(5, frozenset(), known=frozenset())
        assert bare.payload() == (5, frozenset(), 0, None, frozenset(), 0)
        assert empty.payload()[3] == frozenset()
        assert bare.frame_size() < empty.frame_size()

    def test_an_id_costs_a_fraction_of_its_payload(self):
        ids = frozenset(msg(i).id for i in range(1, 11))
        digest = GossipMessage(0, frozenset(), known=ids)
        full = GossipMessage(0, frozenset(
            msg(i, payload="x" * 128) for i in range(1, 11)))
        assert digest.frame_size() * 5 < full.frame_size()

    def test_size_scales_with_unordered_set(self):
        small = GossipMessage(0, frozenset())
        big = GossipMessage(0, frozenset(
            msg(i, payload="x" * 50) for i in range(1, 11)))
        assert big.frame_size() > small.frame_size() + 500

    def test_default_ckpt_k_is_zero(self):
        assert GossipMessage(1, frozenset()).ckpt_k == 0

    def test_default_floor_is_zero(self):
        # Zero is always a safe watermark: it discards nothing.
        assert GossipMessage(1, frozenset()).floor == 0


class TestStateMessage:
    def test_carries_portable_queue(self):
        queue = AgreedQueue()
        queue.append_batch([msg(1, "a"), msg(2, "b")])
        state = StateMessage(7, queue.to_plain())
        rebuilt = AgreedQueue.from_plain(state.agreed_plain)
        assert [m.payload for m in rebuilt.sequence()] == ["a", "b"]
        assert state.k == 7

    def test_size_reflects_queue_content(self):
        empty = StateMessage(0, AgreedQueue().to_plain())
        queue = AgreedQueue()
        queue.append_batch([msg(i, "y" * 40) for i in range(1, 9)])
        full = StateMessage(0, queue.to_plain())
        assert full.frame_size() > empty.frame_size() + 300


class TestAppMessageCodec:
    def test_registered_with_storage_codec(self):
        original = msg(3, payload=("tuple", 1, None))
        decoded = codec.decode(codec.encode(original))
        assert decoded == original
        assert decoded.payload == original.payload
        assert isinstance(decoded.id, MessageId)

    def test_nested_in_containers(self):
        batch = frozenset({msg(1, "a"), msg(2, "b")})
        wrapped = (("round", 4), ("batch", batch))
        assert codec.decode(codec.encode(wrapped)) == wrapped

    def test_size_includes_payload(self):
        light = msg(1, None)
        heavy = msg(1, "z" * 500)
        assert codec.size(heavy) > codec.size(light) + 500
