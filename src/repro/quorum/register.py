"""Quorum-based replicated register in the crash-recovery model.

Section 6.3 points at the companion report bridging Atomic Broadcast
with quorum-based (weighted-voting) replica management.  This module
provides the quorum side of that bridge: a multi-writer multi-reader
atomic register in the ABD style, adapted to this repository's model:

* replicas **log** their ``(timestamp, value)`` state before
  acknowledging, so a crash-and-recover replica never regresses — the
  quorum intersection argument survives recoveries exactly like the
  consensus acceptor state does;
* all phases run over the **fair-loss** channel with periodic
  retransmission until a majority responds;
* a crash during an operation kills the client task; like
  ``A-broadcast``, an unacknowledged operation may or may not have taken
  effect.

Operations (both are cooperative generators, like every blocking call in
this library):

``write(value)``
    phase 1 — query a majority for the highest timestamp;
    phase 2 — store ``(max+1, self)`` at a majority.
``read()``
    phase 1 — query a majority, pick the highest-timestamped value;
    phase 2 — write it back to a majority (the ABD read-repair that
    makes reads atomic rather than merely regular).

The X3 benchmark compares this register against a register replicated
through Atomic Broadcast: quorums win on per-operation latency and
message count, AB wins on ordering power (it serialises arbitrary
read-modify-write commands, which no static-quorum register can).
"""

from __future__ import annotations

from typing import Any, Dict, Set, Tuple

from repro.errors import ProcessDown
from repro.runtime import AnyOf, NodeComponent, Signal
from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage

__all__ = ["QuorumRegister"]

# Timestamps order writes: (number, writer id), lexicographic.
Timestamp = Tuple[int, int]

ZERO: Timestamp = (0, -1)


class QueryRequest(WireMessage):
    """Phase 1 of both operations: what is your (ts, value)?"""

    type = "qr.query"
    type_id = 23
    fields = ("op",)

    def __init__(self, op: tuple):
        self.op = op


class QueryReply(WireMessage):
    type = "qr.query-ack"
    type_id = 24
    fields = ("op", "ts", "value")

    def __init__(self, op: tuple, ts: Timestamp, value: Any):
        self.op = op
        self.ts = ts
        self.value = value


class StoreRequest(WireMessage):
    """Phase 2: adopt (ts, value) if newer than what you hold."""

    type = "qr.store"
    type_id = 25
    fields = ("op", "ts", "value")

    def __init__(self, op: tuple, ts: Timestamp, value: Any):
        self.op = op
        self.ts = ts
        self.value = value


class StoreReply(WireMessage):
    type = "qr.store-ack"
    type_id = 26
    fields = ("op",)

    def __init__(self, op: tuple):
        self.op = op


class _Op:
    """Volatile per-operation quorum tally."""

    __slots__ = ("replies", "acks", "signal")

    def __init__(self, signal: Signal):
        self.replies: Dict[int, Tuple[Timestamp, Any]] = {}
        self.acks: Set[int] = set()
        self.signal = signal


class QuorumRegister(NodeComponent):
    """One node's replica + client of the register."""

    name = "quorum-register"

    STATE_KEY = ("qr", "state")
    INCARNATION_KEY = ("qr", "incarnation")

    def __init__(self, endpoint: Endpoint,
                 retransmit_interval: float = 0.3):
        super().__init__()
        self.endpoint = endpoint
        self.retransmit_interval = retransmit_interval
        self._ts: Timestamp = ZERO
        self._value: Any = None
        self._ops: Dict[tuple, _Op] = {}
        self._incarnation = 0
        self._seq = 0
        # Statistics.
        self.reads_done = 0
        self.writes_done = 0

    # -- lifecycle -----------------------------------------------------------

    def on_start(self) -> None:
        node = self.node
        assert node is not None
        stored = node.storage.retrieve(self.STATE_KEY, None)
        if stored is None:
            self._ts, self._value = ZERO, None
        else:
            num, writer, value = stored
            self._ts, self._value = (int(num), int(writer)), value
        self._incarnation = int(node.storage.retrieve(
            self.INCARNATION_KEY, 0)) + 1
        node.storage.log(self.INCARNATION_KEY, self._incarnation)  # repro: noqa(REC003) -- deliberate monotonic bump: request tags must differ across incarnations; gaps are safe, reuse is not
        self._seq = 0
        self._ops = {}
        self.endpoint.register(QueryRequest.type, self._on_query)
        self.endpoint.register(QueryReply.type, self._on_query_reply)
        self.endpoint.register(StoreRequest.type, self._on_store)
        self.endpoint.register(StoreReply.type, self._on_store_reply)

    def on_crash(self) -> None:
        self._ops = {}

    # -- replica role ------------------------------------------------------------

    def _on_query(self, msg: QueryRequest, sender: int) -> None:
        self.endpoint.send(sender,
                           QueryReply(msg.op, self._ts, self._value))

    def _on_store(self, msg: StoreRequest, sender: int) -> None:
        assert self.node is not None
        ts = (int(msg.ts[0]), int(msg.ts[1]))
        if ts > self._ts:
            # Log before acknowledging: a crashed-and-recovered replica
            # must never regress below what it acked.
            self.node.storage.log(self.STATE_KEY,
                                  (ts[0], ts[1], msg.value))
            self._ts, self._value = ts, msg.value
        self.endpoint.send(sender, StoreReply(msg.op))

    # -- client tallies --------------------------------------------------------------

    def _on_query_reply(self, msg: QueryReply, sender: int) -> None:
        op = self._ops.get(tuple(msg.op))
        if op is not None:
            ts = (int(msg.ts[0]), int(msg.ts[1]))
            op.replies[sender] = (ts, msg.value)
            op.signal.notify()

    def _on_store_reply(self, msg: StoreReply, sender: int) -> None:
        op = self._ops.get(tuple(msg.op))
        if op is not None:
            op.acks.add(sender)
            op.signal.notify()

    # -- client operations ------------------------------------------------------------

    def _quorum(self) -> int:
        return len(self.endpoint.peers()) // 2 + 1

    def _new_op(self) -> Tuple[tuple, _Op]:
        assert self.node is not None
        if not self.node.up:
            raise ProcessDown("register operation on a down node")
        self._seq += 1
        op_id = (self.node.node_id, self._incarnation, self._seq)
        op = _Op(self.node.sim.signal(f"qr-op@{self.node.node_id}"))
        self._ops[op_id] = op
        return op_id, op

    def _quorum_round(self, op_id: tuple, op: _Op, message: WireMessage,
                      done):
        """Broadcast with retransmission until ``done()`` holds."""
        assert self.node is not None
        sim = self.node.sim
        while not done():
            self.endpoint.multisend(message)
            deadline = sim.now + self.retransmit_interval
            while not done() and sim.now < deadline:
                timer = sim.event("qr-retry")
                handle = sim.schedule(self.retransmit_interval,
                                      timer.fire)
                yield AnyOf([op.signal.wait(), timer])
                handle.cancel()

    def write(self, value: Any):
        """Atomic write; returns the timestamp it installed."""
        op_id, op = self._new_op()
        quorum = self._quorum()
        # Phase 1: discover the highest installed timestamp.
        yield from self._quorum_round(
            op_id, op, QueryRequest(op_id),
            lambda: len(op.replies) >= quorum)
        highest = max(ts for ts, _ in op.replies.values())
        assert self.node is not None
        new_ts: Timestamp = (highest[0] + 1, self.node.node_id)
        # Phase 2: install at a majority.
        op.acks.clear()
        yield from self._quorum_round(
            op_id, op, StoreRequest(op_id, new_ts, value),
            lambda: len(op.acks) >= quorum)
        del self._ops[op_id]
        self.writes_done += 1
        return new_ts

    def read(self):
        """Atomic read; returns ``(value, timestamp)``."""
        op_id, op = self._new_op()
        quorum = self._quorum()
        yield from self._quorum_round(
            op_id, op, QueryRequest(op_id),
            lambda: len(op.replies) >= quorum)
        ts, value = max(op.replies.values(), key=lambda pair: pair[0])
        # Read-repair: write the value back so later reads cannot see an
        # older one (atomicity, not just regularity).
        op.acks.clear()
        yield from self._quorum_round(
            op_id, op, StoreRequest(op_id, ts, value),
            lambda: len(op.acks) >= quorum)
        del self._ops[op_id]
        self.reads_done += 1
        return value, ts

    # -- local inspection ---------------------------------------------------------------

    @property
    def local_state(self) -> Tuple[Timestamp, Any]:
        """This replica's current (ts, value) — for tests/metrics."""
        return self._ts, self._value
