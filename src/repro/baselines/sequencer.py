"""Fixed-sequencer total order (context baseline).

The classic non-consensus way to totally order messages: every process
forwards its messages to a distinguished *sequencer*, which assigns
consecutive sequence numbers and multisends ``ORDER(seq, m)``; receivers
deliver strictly in sequence-number order, pulling gaps with explicit
retransmission requests (so the protocol works over the fair-loss
channel).

This baseline provides failure-free latency/throughput context for the
consensus-based protocols: one network hop to the sequencer plus one
multisend, no consensus round, no logging — but **no fault tolerance**:
if the sequencer crashes, ordering simply stops (and nothing is logged,
so a recovered sequencer forgets its history).  The benches only run it
failure-free; tests document its failure behaviour.

It deliberately implements the same upper-layer surface as the
consensus-based protocols (``submit`` / ``add_listener`` /
``deliver_sequence``), so the harness can swap it in transparently.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.agreed import AgreedQueue
from repro.core.basic import DeliveryListener
from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.errors import BroadcastError
from repro.runtime import NodeComponent
from repro.storage import codec
from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage

__all__ = ["FixedSequencerBroadcast"]


class ForwardMessage(WireMessage):
    """A message forwarded to the sequencer for ordering."""

    type = "seq.forward"
    type_id = 19
    fields = ("message",)

    def __init__(self, message: AppMessage):
        self.message = message


class OrderMessage(WireMessage):
    """Sequencer's ordering announcement."""

    type = "seq.order"
    type_id = 20
    fields = ("seq", "message")

    def __init__(self, seq: int, message: AppMessage):
        self.seq = seq
        self.message = message


class ResendRequest(WireMessage):
    """Gap repair: ask the sequencer to re-announce ``seq``."""

    type = "seq.resend"
    type_id = 21
    fields = ("seq",)

    def __init__(self, seq: int):
        self.seq = seq


class SequencerStatus(WireMessage):
    """Periodic announcement of the highest assigned sequence number.

    Without it, a receiver that lost the *tail* of the order stream would
    have no gap to notice; with it, fair-loss retransmission covers tail
    losses too.
    """

    type = "seq.status"
    type_id = 22
    fields = ("highest",)

    def __init__(self, highest: int):
        self.highest = highest


class FixedSequencerBroadcast(NodeComponent):
    """Total order via a fixed sequencer (node 0 by default)."""

    name = "fixed-sequencer"

    def __init__(self, endpoint: Endpoint, sequencer_id: int = 0,
                 resend_interval: float = 0.5):
        super().__init__()
        self.endpoint = endpoint
        self.sequencer_id = sequencer_id
        self.resend_interval = resend_interval
        # Optional membership layer, wired by the harness like on the
        # consensus-based stacks (the sequencer itself stays fixed; a
        # view evicting it halts ordering, as documented above).
        self.view_manager = None
        # Receiver state.
        self.agreed = AgreedQueue()
        self.next_seq = 1
        self._pending: Dict[int, AppMessage] = {}
        self._listeners: List[DeliveryListener] = []
        self._delivered = None
        # Sequencer state.
        self._order_log: Dict[int, AppMessage] = {}
        self._assigned: Dict[MessageId, int] = {}
        self._next_assign = 1
        self._seq = 0
        self.incarnation = 1

    # -- lifecycle -----------------------------------------------------------

    def on_start(self) -> None:
        node = self.node
        assert node is not None
        self.agreed = AgreedQueue()
        self.next_seq = 1
        self._pending = {}
        self._listeners = []
        self._delivered = node.sim.signal(f"seq-delivered@{node.node_id}")
        self._order_log = {}
        self._assigned = {}
        self._next_assign = 1
        self._seq = 0
        self._highest_known = 0
        self._outstanding: Dict[MessageId, AppMessage] = {}
        if self.view_manager is not None:
            self._listeners.append(self.view_manager)
        self.endpoint.register(ForwardMessage.type, self._on_forward)
        self.endpoint.register(OrderMessage.type, self._on_order)
        self.endpoint.register(ResendRequest.type, self._on_resend)
        self.endpoint.register(SequencerStatus.type, self._on_status)
        node.spawn(self._gap_repair_task(), "seq-gap-repair")
        if node.node_id == self.sequencer_id:
            node.spawn(self._status_task(), "seq-status")

    # -- upper layer (same surface as the consensus-based protocols) ---------------

    def add_listener(self, listener: DeliveryListener) -> None:
        """Subscribe to delivery upcalls."""
        self._listeners.append(listener)

    def submit(self, payload: Any) -> AppMessage:
        """Hand a message to the sequencer for ordering (non-blocking)."""
        assert self.node is not None
        if not self.node.up:
            raise BroadcastError("broadcast on a down process")
        # Sized before the sequence bump: a mutable payload raises
        # TypeError here and consumes no id.
        codec.size(payload)
        self._seq += 1
        message = AppMessage(
            MessageId(self.node.node_id, self.incarnation, self._seq),
            payload)
        if self.node.node_id == self.sequencer_id:
            self._assign(message)
        else:
            # Track until ordered: the forward travels over a fair-loss
            # channel and is retransmitted by the gap-repair task.
            self._outstanding[message.id] = message
            self.endpoint.send(self.sequencer_id, ForwardMessage(message))
        return message

    def broadcast(self, payload: Any):
        """Blocking variant: returns once the message is delivered locally."""
        message = self.submit(payload)
        while message not in self.agreed:
            yield self._delivered.wait()
        return message

    def deliver_sequence(self) -> List[AppMessage]:
        """Messages delivered so far, in order."""
        return self.agreed.sequence()

    def delivered_count(self) -> int:
        return len(self.agreed)

    def has_backlog(self, ordered=None) -> bool:
        """True while this node holds messages not yet known ordered.

        Mirrors :meth:`repro.core.basic.BasicAtomicBroadcast.has_backlog`:
        ``ordered`` is the harness's record of ids delivered anywhere —
        those are no longer this node's responsibility to push.
        """
        if not self._outstanding:
            return False
        if ordered is None:
            return True
        return any(mid not in ordered for mid in self._outstanding)

    # -- sequencer role -----------------------------------------------------------

    def _assign(self, message: AppMessage) -> None:
        existing = self._assigned.get(message.id)
        if existing is not None:
            self.endpoint.multisend(
                OrderMessage(existing, self._order_log[existing]))
            return
        seq = self._next_assign
        self._next_assign += 1
        self._assigned[message.id] = seq
        self._order_log[seq] = message
        self.endpoint.multisend(OrderMessage(seq, message))

    def _on_forward(self, msg: ForwardMessage, sender: int) -> None:
        assert self.node is not None
        if self.node.node_id == self.sequencer_id:
            self._assign(msg.message)

    def _on_resend(self, msg: ResendRequest, sender: int) -> None:
        assert self.node is not None
        if self.node.node_id != self.sequencer_id:
            return
        message = self._order_log.get(msg.seq)
        if message is not None:
            self.endpoint.send(sender, OrderMessage(msg.seq, message))

    # -- receiver role ----------------------------------------------------------------

    def _on_order(self, msg: OrderMessage, sender: int) -> None:
        if msg.seq < self.next_seq:
            return  # duplicate of something already delivered
        self._pending[msg.seq] = msg.message
        self._outstanding.pop(msg.message.id, None)
        while self.next_seq in self._pending:
            message = self._pending.pop(self.next_seq)
            appended = self.agreed.append_batch([message])
            # One sequence number is this protocol's round.
            self.node.sim.trace("round", self.node.node_id, "commit",
                                k=self.next_seq - 1, batch=1,
                                new=len(appended))
            self.next_seq += 1
            for delivered in appended:
                for listener in self._listeners:
                    listener.on_deliver(delivered)
        if self._delivered is not None:
            self._delivered.notify()

    def _on_status(self, msg: SequencerStatus, sender: int) -> None:
        self._highest_known = max(self._highest_known, msg.highest)

    def _status_task(self):
        while True:
            self.endpoint.multisend(SequencerStatus(self._next_assign - 1))
            yield self.resend_interval

    def _gap_repair_task(self):
        """Periodically re-request the lowest missing sequence number."""
        while True:
            yield self.resend_interval
            behind_pending = (self._pending
                              and min(self._pending) > self.next_seq)
            behind_status = self._highest_known >= self.next_seq
            if behind_pending or behind_status:
                self.endpoint.send(self.sequencer_id,
                                   ResendRequest(self.next_seq))
            for message in list(self._outstanding.values()):
                if message in self.agreed:
                    self._outstanding.pop(message.id, None)
                else:
                    self.endpoint.send(self.sequencer_id,
                                       ForwardMessage(message))
