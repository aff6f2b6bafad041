"""Unit tests for seeded RNG streams and the size model: the codec's
exact encoded length."""

from __future__ import annotations

import pytest

from repro.runtime import SeedSequence
from repro.storage import codec
from repro.transport.message import HEADER, WireMessage


class TestSeedSequence:
    def test_streams_are_memoised(self):
        seeds = SeedSequence(1)
        assert seeds.stream("a") is seeds.stream("a")

    def test_streams_are_independent(self):
        seeds = SeedSequence(1)
        a_first = seeds.stream("a").random()
        # Drawing from "b" must not perturb "a".
        seeds2 = SeedSequence(1)
        seeds2.stream("b").random()
        assert seeds2.stream("a").random() == a_first

    def test_same_seed_same_draws(self):
        assert SeedSequence(5).stream("x").random() == \
            SeedSequence(5).stream("x").random()

    def test_different_names_differ(self):
        seeds = SeedSequence(5)
        assert seeds.stream("x").random() != seeds.stream("y").random()

    def test_different_seeds_differ(self):
        assert SeedSequence(1).stream("x").random() != \
            SeedSequence(2).stream("x").random()

    def test_child_sequences_derive(self):
        child = SeedSequence(1).child("node-3")
        assert child.stream("net").random() == \
            SeedSequence(1).child("node-3").stream("net").random()


class TestEstimateSize:
    """``codec.size`` is the length of the value's encoding, exactly."""

    def test_primitives(self):
        assert codec.size(None) == 1
        assert codec.size(True) == 1
        assert codec.size(0) == 2
        assert codec.size(3.14) == 9
        assert codec.size("abc") == 5
        assert codec.size("é") == 4                # two UTF-8 bytes
        assert codec.size(b"abcd") == 6

    def test_big_ints_cost_more(self):
        assert codec.size(2 ** 64) > codec.size(7)
        for value in (63, 64, -64, -65, 2 ** 64, -(2 ** 64)):
            assert codec.size(value) == len(codec.encode(value))

    def test_containers_sum_members(self):
        assert codec.size((1, 2)) == 2 + 2 * codec.size(1)
        assert codec.size(frozenset({1, 2})) == codec.size((1, 2))
        for mutable in ([1, 2], {1, 2}):
            with pytest.raises(TypeError, match="immutable"):
                codec.size(mutable)

    def test_dict_counts_keys_and_values(self):
        items = (("k", "v"),)  # a map's immutable form: its items
        assert codec.size(items) == \
            2 + 2 + codec.size("k") + codec.size("v")
        with pytest.raises(TypeError, match="dict"):
            codec.size({"k": "v"})

    def test_wire_message_uses_declared_fields(self):
        class M(WireMessage):
            type = "m"
            fields = ("a", "b")

            def __init__(self):
                self.a = "xx"
                self.b = 7
                self.hidden = "not counted" * 100

        small = M()
        assert small.frame_size() == HEADER.size + \
            codec.size("xx") + codec.size(7)

    def test_unknown_object_is_refused(self):
        class Weird:
            def __repr__(self):
                return "w" * 10

        with pytest.raises(codec.CodecError, match="Weird"):
            codec.size(Weird())

    def test_nested_structures(self):
        nested = (("tuple", (1, (2, 3))), ("set", frozenset({"a"})))
        assert codec.size(nested) == len(codec.encode(nested))
        for buried in ([1], {"a"}, {"k": 1}, bytearray(b"x")):
            with pytest.raises(TypeError, match="immutable"):
                codec.size((("deep", (0, buried)),))


class _Counted:
    """A set member whose sizing is observable: a registered codec
    class that keeps no size, so each walk reaches ``to_plain``."""

    walks = 0


def _counted_plain(value: _Counted) -> str:
    _Counted.walks += 1
    return "c" * 140


codec.register(_Counted, 0xC7, _counted_plain,
               lambda plain: _Counted())


def _uncached(message: WireMessage) -> int:
    return HEADER.size + sum(
        codec.size(getattr(message, name)) for name in message.fields)


class TestWireMessageSizeCache:
    """Messages are immutable by convention: size each object once."""

    def setup_method(self):
        _Counted.walks = 0

    def test_large_gossip_is_walked_once(self):
        from repro.core.messages import GossipMessage
        gossip = GossipMessage(3, frozenset(_Counted() for _ in range(1000)))
        first = gossip.frame_size()
        assert _Counted.walks == 1000
        assert gossip.frame_size() == first
        assert _Counted.walks == 1000           # not re-walked
        assert first == _uncached(gossip)       # walks once more, uncached
        assert _Counted.walks == 2000

    def test_rebuilt_message_is_covered(self):
        # The wire codec rebuilds instances without running __init__.
        from repro.consensus.paxos import Decide
        from repro.runtime import wire
        rebuilt = wire.rebuild(
            Decide, {"k": 4, "ballot": -1, "value": (1, 2, 3),
                             "prepare_next": False})
        assert rebuilt.frame_size() == _uncached(rebuilt)
        rebuilt.value = (1, 2, 3, 4, 5)         # convention broken on purpose
        assert rebuilt.frame_size() != _uncached(rebuilt)

    def test_scoped_envelope_sizes_inner_once(self):
        from repro.core.messages import GossipMessage
        from repro.transport.scoped import ScopedMessage
        inner = GossipMessage(0, frozenset(_Counted() for _ in range(50)))
        envelope = ScopedMessage("g1", inner)
        size = envelope.frame_size()
        assert size == HEADER.size + codec.size("g1") + _uncached(inner)
        walks = _Counted.walks
        assert envelope.frame_size() == size
        assert _Counted.walks == walks
