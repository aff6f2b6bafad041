"""Unit tests for seeded RNG streams and the size model."""

from __future__ import annotations

import pytest

from repro.runtime import SeedSequence
from repro.sizing import estimate_size
from repro.transport.message import WireMessage


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
    def test_primitives(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(0) >= 1
        assert estimate_size(3.14) == 10
        assert estimate_size("abc") == 5
        assert estimate_size(b"abcd") == 6

    def test_big_ints_cost_more(self):
        assert estimate_size(2 ** 64) > estimate_size(7)

    def test_containers_sum_members(self):
        assert estimate_size((1, 2)) == 2 + 2 * estimate_size(1)
        assert estimate_size(frozenset({1, 2})) == estimate_size((1, 2))
        for mutable in ([1, 2], {1, 2}):
            with pytest.raises(TypeError, match="immutable"):
                estimate_size(mutable)

    def test_dict_counts_keys_and_values(self):
        items = (("k", "v"),)  # a map's immutable form: its items
        assert estimate_size(items) == \
            2 + 2 + estimate_size("k") + estimate_size("v")
        with pytest.raises(TypeError, match="dict"):
            estimate_size({"k": "v"})

    def test_wire_message_uses_declared_fields(self):
        class M(WireMessage):
            type = "m"
            fields = ("a", "b")

            def __init__(self):
                self.a = "xx"
                self.b = 7
                self.hidden = "not counted" * 100

        small = M()
        assert estimate_size(small) == 2 + 1 + \
            estimate_size("xx") + estimate_size(7)

    def test_unknown_object_falls_back_to_repr(self):
        class Weird:
            def __repr__(self):
                return "w" * 10

        assert estimate_size(Weird()) == 12

    def test_nested_structures(self):
        nested = (("tuple", (1, (2, 3))), ("set", frozenset({"a"})))
        assert estimate_size(nested) > 0
        for buried in ([1], {"a"}, {"k": 1}, bytearray(b"x")):
            with pytest.raises(TypeError, match="immutable"):
                estimate_size((("deep", (0, buried)),))


class _Counted:
    """A set member whose sizing is observable."""

    walks = 0

    def estimated_size(self) -> int:
        type(self).walks += 1
        return 142


def _uncached(message: WireMessage) -> int:
    return 2 + len(message.type) + sum(
        estimate_size(getattr(message, name)) for name in message.fields)


class TestWireMessageSizeCache:
    """Messages are immutable by convention: size each object once."""

    def setup_method(self):
        _Counted.walks = 0

    def test_large_gossip_is_walked_once(self):
        from repro.core.messages import GossipMessage
        gossip = GossipMessage(3, frozenset(_Counted() for _ in range(1000)))
        first = estimate_size(gossip)
        assert _Counted.walks == 1000
        assert estimate_size(gossip) == first
        assert gossip.estimated_size() == first
        assert _Counted.walks == 1000           # not re-walked
        assert first == _uncached(gossip)       # walks once more, uncached
        assert _Counted.walks == 2000

    def test_rebuilt_message_is_covered(self):
        # The wire codec rebuilds instances without running __init__.
        from repro.runtime import wire
        rebuilt = wire.rebuild(
            "paxos.decide", {"k": 4, "ballot": -1, "value": (1, 2, 3)})
        assert rebuilt.estimated_size() == _uncached(rebuilt)
        rebuilt.value = (1, 2, 3, 4, 5)         # convention broken on purpose
        assert rebuilt.estimated_size() != _uncached(rebuilt)

    def test_scoped_envelope_sizes_inner_once(self):
        from repro.core.messages import GossipMessage
        from repro.transport.scoped import ScopedMessage
        inner = GossipMessage(0, frozenset(_Counted() for _ in range(50)))
        envelope = ScopedMessage("g1", inner)
        size = estimate_size(envelope)
        assert size == 2 + len("g1") + _uncached(inner)
        walks = _Counted.walks
        assert estimate_size(envelope) == size
        assert _Counted.walks == walks
