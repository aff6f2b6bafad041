"""Unit tests for the live runtime substrate.

The integration contract (same totally-ordered stream as the simulator,
crash/recovery over real files) lives in
tests/integration/test_runtime_conformance.py; here we pin down the
building blocks in isolation: the UDP wire codec, the asyncio-backed
implementation of the ``Runtime`` interface, and error capture.
"""

from __future__ import annotations

import pytest

from repro.core.ids import MessageId
from repro.core.messages import AppMessage, GossipMessage, StateMessage
from repro.errors import SimulationError
from repro.runtime import AnyOf
from repro.runtime.live import LiveRuntime
from repro.runtime.wire import (HEADER, MAGIC, WireCodecError, decode,
                                encode)


@pytest.fixture
def runtime():
    rt = LiveRuntime(seed=3)
    yield rt
    rt.close()


# ---------------------------------------------------------------- wire codec

def test_wire_roundtrip_gossip():
    unordered = frozenset({
        AppMessage(MessageId(0, 1, 4), "alpha"),
        AppMessage(MessageId(2, 1, 9), ("tuple", 7)),
    })
    known = frozenset(m.id for m in unordered) | {MessageId(1, 3, 2)}
    want = frozenset({MessageId(0, 1, 5)})
    sender, message = decode(encode(1, GossipMessage(
        5, unordered, ckpt_k=2, known=known, want=want, floor=1)))
    assert sender == 1
    assert isinstance(message, GossipMessage)
    assert (message.k, message.ckpt_k, message.floor) == (5, 2, 1)
    assert message.payloads == unordered
    assert isinstance(message.payloads, frozenset)
    by_id = {m.id: m.payload for m in message.payloads}
    assert by_id[MessageId(2, 1, 9)] == ("tuple", 7)
    # Ids arrive as plain tuples; they hash and compare equal to MessageId.
    assert (message.known, message.want) == (known, want)
    assert MessageId(1, 3, 2) in message.known


@pytest.mark.parametrize("sender", [1, 2 ** 32 - 1], ids=["typed", "max"])
@pytest.mark.parametrize("known", [None, frozenset(),
                                   frozenset({MessageId(1, 3, 2)})],
                         ids=["no-digest", "empty-digest", "digest"])
def test_wire_roundtrip_gossip_with_and_without_digest(sender, known):
    payloads = frozenset({AppMessage(MessageId(0, 1, 4), "alpha")})
    data = encode(sender, GossipMessage(3, payloads, known=known))
    assert HEADER.unpack_from(data)[2:4] == (sender, GossipMessage.type_id)
    got_sender, message = decode(data)
    assert got_sender == sender
    assert message.payloads == payloads
    # None ("no digest") and an empty digest stay distinct on the wire.
    assert message.known == known and (message.known is None) == \
        (known is None)


def test_wire_roundtrip_state():
    plain = (3, (((0, 1, 2), "x"), ((1, 1, 5), "y")))
    sender, message = decode(encode(0, StateMessage(3, plain)))
    assert sender == 0
    assert isinstance(message, StateMessage)
    assert message.agreed_plain == plain


def test_wire_rejects_garbage_and_unknown_tags():
    with pytest.raises(WireCodecError):
        decode(b"\xff\x00 not json")
    with pytest.raises(WireCodecError, match="unknown type id"):
        decode(HEADER.pack(MAGIC, 6, 0, 999, 0))


def test_wire_duplicate_tag_is_ambiguous_not_fatal():
    """Throwaway test message classes may share a dispatch tag; without a
    type-id they never reach the wire, so the tag changes no decoding."""
    from repro.transport.message import WireMessage

    class DupA(WireMessage):
        type = "test.wire.dup"
        fields = ()

    class DupB(WireMessage):
        type = "test.wire.dup"
        fields = ()

    with pytest.raises(WireCodecError, match="no type_id"):
        encode(4, DupB())
    # Protocol messages keep working beside them.
    sender, message = decode(encode(4, StateMessage(1, ())))
    assert (sender, message.k) == (4, 1)


# --------------------------------------------------------------- LiveRuntime

def test_timers_fire_in_delay_order(runtime):
    fired = []
    runtime.schedule(0.02, fired.append, "late")
    runtime.schedule(0.0, fired.append, "soon")
    runtime.call_soon(fired.append, "first")
    runtime.run_for(0.1)
    assert fired == ["first", "soon", "late"]
    assert runtime.events_processed >= 3


def test_negative_delay_rejected(runtime):
    with pytest.raises(SimulationError):
        runtime.schedule(-0.5, lambda: None)


def test_cancelled_timer_does_not_fire(runtime):
    fired = []
    handle = runtime.schedule(0.01, fired.append, "cancelled")
    handle.cancel()
    runtime.run_for(0.05)
    assert fired == []


def test_generator_tasks_run_on_asyncio(runtime):
    """sleep / event-wait / AnyOf / join — the whole yield protocol."""
    log = []
    gate = runtime.event("gate")

    def helper():
        yield 0.01
        log.append("helper-slept")
        yield gate
        log.append("helper-gated")

    def main():
        child = runtime.spawn(helper(), name="helper")
        winner = yield AnyOf([runtime.event("never"), child.done_event()])
        del winner
        log.append("helper-joined")

    runtime.call_soon(gate.fire)
    runtime.spawn(main(), name="main")
    runtime.run_for(0.1)
    runtime.check_errors()
    assert log == ["helper-slept", "helper-gated", "helper-joined"]


def test_rng_streams_are_seed_deterministic():
    a = LiveRuntime(seed=9)
    b = LiveRuntime(seed=9)
    try:
        draws_a = [a.rng("net.loss").random() for _ in range(5)]
        draws_b = [b.rng("net.loss").random() for _ in range(5)]
        assert draws_a == draws_b
    finally:
        a.close()
        b.close()


def test_callback_errors_are_captured_and_reraised(runtime):
    def boom():
        raise ValueError("kaput")

    runtime.call_soon(boom)
    runtime.run_for(0.02)
    assert runtime.errors
    with pytest.raises(SimulationError, match="kaput"):
        runtime.check_errors()
