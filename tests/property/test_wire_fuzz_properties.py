"""Property suite for the wire codec, driven by the wirefuzz engine.

Fixed seeds keep the suite deterministic; a failure prints the
iteration sub-seed so the exact case replays via
``repro wirefuzz --seed``.
"""

from __future__ import annotations

import math

import pytest

from repro.consensus.paxos import Query
from repro.runtime import wire, wirefuzz
from repro.runtime.wire import HEADER, MAGIC, WireCodecError


def _describe(report):
    return "\n".join(f"{suite} seed={seed}: {detail}"
                     for suite, seed, detail in report.defects)


def test_every_registered_class_round_trips():
    """encode -> decode as a frame must reproduce sender, class and field
    values for every message class with a type-id."""
    report = wirefuzz.fuzz_roundtrip(iterations=150, seed=2024)
    assert report.ok, _describe(report)
    # Every registered class was actually exercised (round-robin).
    assert report.roundtrips >= len(wirefuzz.registered_classes())


def test_gossip_digest_and_pull_fields_are_fuzzed():
    """The fuzzed universe follows ``fields``: the gossip digest
    (``known``), pull (``want``) and watermark (``floor``) get random
    values like the rest, and the digest is drawn both present and
    absent (``None``)."""
    import random
    gossip = dict(wirefuzz.registered_classes())["ab.gossip"]
    assert gossip.fields == ("k", "payloads", "ckpt_k", "known", "want",
                             "floor")
    drawn = wirefuzz.random_fields(gossip, random.Random(7))
    assert set(drawn) == set(gossip.fields)
    floors = {repr(wirefuzz.random_fields(gossip, random.Random(seed))
                   ["floor"]) for seed in range(20)}
    assert len(floors) > 1
    rng = random.Random(8)
    digests = [wirefuzz.random_fields(gossip, rng)["known"]
               for _ in range(20)]
    assert any(known is None for known in digests)
    assert any(known is not None for known in digests)
    classes = len(wirefuzz.registered_classes())
    report = wirefuzz.fuzz_roundtrip(iterations=classes, seed=18)
    assert report.ok, _describe(report)
    assert report.roundtrips == classes     # one of them was ab.gossip


def test_adversarial_bytes_raise_only_wirecodecerror():
    report = wirefuzz.fuzz_decode(iterations=600, seed=2025)
    assert report.ok, _describe(report)
    assert report.clean_rejections > 0  # the suite did reject things


def test_damaged_stores_end_in_quarantine_or_a_torn_tail_stop():
    """Damaged journals and compaction snapshots reopen without an
    exception, to a prefix of what was logged: replay stops at the
    first bad frame, and a damaged one (not merely cut short) is
    counted in ``metrics.quarantined``."""
    report = wirefuzz.fuzz_storage(iterations=60, seed=2026)
    assert report.ok, _describe(report)
    assert report.damaged_stores == 60
    assert report.quarantined > 0     # the frame damage was detected


def test_fuzz_universe_covers_type_id_table():
    """The fuzzed universe is the type-id table: every class the decoder
    can build is fuzzed, and every protocol stack's classes are in it."""
    from repro.transport.message import BY_TYPE_ID
    fuzzed = dict(wirefuzz.registered_classes())  # imports the stacks
    assert sorted(fuzzed.values(), key=lambda cls: cls.type_id) == \
        sorted(BY_TYPE_ID.values(), key=lambda cls: cls.type_id)
    assert {"ab.gossip", "fd.alive", "paxos.decide", "ct.decide",
            "seq.order", "qr.store", "mg.announce"} <= set(fuzzed)


def test_nonfinite_floats_round_trip_on_the_wire():
    for sender in (0, 2 ** 32 - 1):
        message = wire.rebuild(Query, {"k": math.nan})
        _, got = wire.decode(wire.encode(sender, message))
        assert isinstance(got.k, float) and math.isnan(got.k)
        for value in (math.inf, -math.inf):
            message = wire.rebuild(Query, {"k": value})
            _, got = wire.decode(wire.encode(sender, message))
            assert got.k == value
        message = wire.rebuild(Query, {"k": -0.0})
        _, got = wire.decode(wire.encode(sender, message))
        assert got.k == 0.0 and math.copysign(1.0, got.k) == -1.0


def test_depth_bomb_is_cleanly_rejected():
    """A payload of 100 nested tuples must hit the depth bound, not the
    interpreter's recursion limit."""
    payload = b"t\x01" * 100 + b"N"
    type_id = Query.type_id  # fields = ("k",)
    frame = HEADER.pack(MAGIC, 6, 0, type_id, len(payload)) + payload
    with pytest.raises(WireCodecError, match="too deep"):
        wire.decode_datagram(frame)


def test_equivalent_distinguishes_float_identity():
    assert wirefuzz.equivalent(math.nan, math.nan)
    assert not wirefuzz.equivalent(0.0, -0.0)
    assert wirefuzz.equivalent((1, (math.nan,)), (1, (math.nan,)))
    assert not wirefuzz.equivalent([1], (1,))
    assert not wirefuzz.equivalent(1, True)
