"""The Agreed queue (Figure 1): ordered, idempotent, checkpointable.

The queue holds the node's delivery sequence.  Structurally it is::

    [ application checkpoint (optional) | suffix of explicit messages ]

* ``append_batch`` implements the paper's ⊕ operation: messages of a
  consensus decision that are not yet in the queue are moved to its tail
  **according to the predetermined deterministic rule** (here: sorted by
  message id), and duplicates are eliminated — the operation is
  idempotent, as Section 4.1 requires.
* ``compact`` implements Section 5.2: the delivered prefix is replaced by
  the pair ``(A-checkpoint(σ), VC(σ))`` — an application state plus a
  :class:`~repro.core.tracker.DeliveredTracker` recording which messages
  the state logically contains.
* ``to_plain`` / ``from_plain`` make the whole queue portable, for the
  whole-queue ``state`` message of Section 5.3 and for the base record
  of a durable checkpoint (Section 5.1).
* ``tail`` / ``extend`` move a run of already-ordered messages: what a
  checkpoint segment logs and what recovery appends back.
"""

from __future__ import annotations

from typing import (Any, Callable, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.core.tracker import DeliveredTracker

__all__ = ["AgreedQueue", "deterministic_order", "sender_round_robin_order"]

OrderRule = Callable[[Iterable[AppMessage]], List[AppMessage]]


def deterministic_order(batch: Iterable[AppMessage]) -> List[AppMessage]:
    """The predetermined deterministic rule of Section 4.2 (default).

    Any rule works as long as every process applies the same one; we sort
    by message id ``(sender, incarnation, seq)``.
    """
    return sorted(batch, key=AppMessage.sort_key)


def sender_round_robin_order(
        batch: Iterable[AppMessage]) -> List[AppMessage]:
    """An alternative deterministic rule (ablation): interleave senders.

    Orders by ``(seq, sender, incarnation)`` so one message per sender is
    taken before any sender's second — a fairness-flavoured rule.  The
    protocol is indifferent to the choice, as long as it is *the same
    everywhere*; the X-ablation tests swap it in (and show that mixing
    rules across nodes is caught by verification).
    """
    return sorted(batch, key=lambda m: (m.id.seq, m.id.sender,
                                        m.id.incarnation))


class AgreedQueue:
    """A node's delivery sequence (volatile; rebuilt or restored on recovery).

    ``order_rule`` is the predetermined deterministic rule applied to
    each decided batch; every process of a cluster must use the same
    one.
    """

    __slots__ = ("checkpoint_state", "checkpoint_tracker", "suffix",
                 "tracker", "order_rule")

    def __init__(self, order_rule: OrderRule = deterministic_order) -> None:
        self.checkpoint_state: Any = None
        self.checkpoint_tracker: Optional[DeliveredTracker] = None
        self.suffix: List[AppMessage] = []
        self.tracker = DeliveredTracker()
        self.order_rule = order_rule

    # -- the ⊕ operation ---------------------------------------------------------

    def append_batch(self, batch: Iterable[AppMessage]) -> List[AppMessage]:
        """Append a decided batch; returns the newly appended messages
        in delivery order (duplicates silently skipped)."""
        return self.extend(self.order_rule(batch))

    def extend(self, messages: Iterable[AppMessage]) -> List[AppMessage]:
        """Append messages that are already in delivery order (a logged
        checkpoint segment); returns the ones that were new."""
        appended: List[AppMessage] = []
        for message in messages:
            if self.tracker.add(message.id):
                message.release_encoding()
                self.suffix.append(message)
                appended.append(message)
        return appended

    # -- membership (duplicate elimination) ------------------------------------------

    def __contains__(self, item: Any) -> bool:
        mid = item.id if isinstance(item, AppMessage) else item
        if not isinstance(mid, MessageId):
            mid = MessageId(*mid)
        return mid in self.tracker

    def __len__(self) -> int:
        """Total messages delivered, including those inside the checkpoint."""
        return len(self.tracker)

    @property
    def checkpointed_count(self) -> int:
        """Messages logically contained in the checkpoint."""
        if self.checkpoint_tracker is None:
            return 0
        return len(self.checkpoint_tracker)

    def sequence(self) -> List[AppMessage]:
        """The explicit tail of the delivery sequence (after the checkpoint).

        With no checkpoint this is the node's entire ``A-deliver-sequence``.
        """
        return list(self.suffix)

    def tail(self, count: int) -> Tuple[AppMessage, ...]:
        """The last ``count`` delivered messages (all of them explicit)."""
        return tuple(self.suffix[-count:]) if count else ()

    # -- Section 5.2: application-level checkpointing -------------------------------------

    def compact(self, state: Any) -> int:
        """Replace the explicit prefix with an application checkpoint.

        ``state`` must be the application state that *contains* every
        message delivered so far (the caller obtains it through the
        A-checkpoint upcall).  Returns the number of messages absorbed.
        """
        absorbed = len(self.suffix)
        self.checkpoint_state = state
        self.checkpoint_tracker = self.tracker.copy()
        self.suffix = []
        return absorbed

    # -- portability (state transfer / durable checkpoints) ----------------------------------

    def to_plain(self) -> tuple:
        """Codec-friendly immutable snapshot of the whole queue (tuples
        all the way down, with the application state by reference)."""
        return (
            self.checkpoint_state,
            None if self.checkpoint_tracker is None
            else self.checkpoint_tracker.to_plain(),
            tuple(self.suffix),
        )

    @classmethod
    def from_plain(cls, plain: Sequence[Any],
                   order_rule: OrderRule = deterministic_order
                   ) -> "AgreedQueue":
        """Rebuild a queue from :meth:`to_plain` output."""
        state, tracker_plain, suffix = plain
        queue = cls(order_rule)
        queue.checkpoint_state = state
        if tracker_plain is not None:
            queue.checkpoint_tracker = DeliveredTracker.from_plain(
                tracker_plain)
            queue.tracker = queue.checkpoint_tracker.copy()
        queue.extend(suffix)
        return queue

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"AgreedQueue({self.checkpointed_count} checkpointed + "
                f"{len(self.suffix)} explicit)")
