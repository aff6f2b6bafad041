"""Application messages and Atomic Broadcast wire messages.

* :class:`AppMessage` — a payload travelling through Atomic Broadcast,
  identified by a :class:`~repro.core.ids.MessageId` (identity-based
  equality, so sets of messages deduplicate by id exactly as the paper's
  idempotent Unordered/Agreed operations require).
* :class:`GossipMessage` — Figure 2's ``gossip(k_p, Unordered_p)``, sent as a
  digest of ids plus only the payloads the addressee lacks and can use.
* :class:`StateMessage` — ``state(k_p - 1, …)`` of Figure 3 (Section 5.3
  state transfer): the rounds the addressee missed, or the whole queue.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Optional, Sequence, Tuple

from repro.core.ids import MessageId
from repro.storage import codec
from repro.transport.message import WireMessage

__all__ = ["AppMessage", "GossipMessage", "StateMessage"]


class AppMessage:
    """An application payload with a unique identity.

    Equality and hashing are by id only: two copies of the same broadcast
    are *the same message*, which is what makes duplicate elimination in
    the Unordered set and the Agreed queue idempotent (Section 4.1).
    Payloads are immutable (strings, numbers, tuples, frozensets):
    ``submit`` sizes each payload, which refuses a list, set or dict at
    any depth (:func:`repro.storage.codec.size`).
    """

    __slots__ = ("id", "payload", "_size", "_encoded")

    def __init__(self, id: MessageId, payload: Any = None):
        self.id = id
        self.payload = payload
        self._size: Any = None
        # The codec's bytes for this message (see repro.storage.codec):
        # kept while it is unordered or in flight, so gossip, Accept
        # and the logs that carry it splice them instead of re-encoding.
        self._encoded: Any = None

    def release_encoding(self) -> None:
        """Drop the cached encoding for good: the message is ordered, and
        whatever still sends or logs it is rare enough to re-encode."""
        self._encoded = False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AppMessage) and self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)

    def sort_key(self) -> Tuple[int, int, int]:
        """The deterministic batch-ordering rule (Section 4.2)."""
        return tuple(self.id)  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AppMessage({self.id.label()}, {self.payload!r})"


def _message_to_plain(message: AppMessage) -> Tuple[Any, Any]:
    return (tuple(message.id), message.payload)


def _message_from_plain(plain: Sequence[Any]) -> AppMessage:
    identity, payload = plain
    return AppMessage(MessageId(*identity), payload)


codec.register(AppMessage, 1, _message_to_plain, _message_from_plain,
               fields=("id", "payload"))


class GossipMessage(WireMessage):
    """``gossip(k, payloads, ckpt_k, known, want, floor)``: round number,
    digest, and only the messages the addressee is not known to hold.

    Figure 2 multisends the whole Unordered set to everyone; here a
    payload goes only to the processes whose proposal a round can
    decide, once per link, and everything else refers to it by id
    (DESIGN.md, substitutions):

    * ``known`` — the ids of the sender's whole Unordered set.  It is the
      digest the leader pulls from and, read by an originator, the
      evidence that a push was lost.  ``None`` means "no digest in this
      gossip" (the leader digests to a rotating few peers a tick, a
      follower to the leader alone): the receiver keeps what the
      sender's last digest said.  An empty set is a digest, of an empty
      Unordered set;
    * ``payloads`` — messages the sender originated that the addressee's
      view did not list and it had not pushed already, plus whatever the
      addressee asked for;
    * ``want`` — ids the addressee advertised that the sender holds in
      neither Unordered nor Agreed (the pull).

    ``ckpt_k`` piggybacks the sender's durably checkpointed round so that
    peers can compute the global garbage-collection watermark (the lowest
    checkpointed round across all processes): consensus logs below the
    watermark can never be needed again by anyone — a recovering process
    restarts at its own checkpoint — so they are safe to discard.  This
    makes the paper's "line c" log truncation safe for *other* processes
    too, not just the local replay (see DESIGN.md, substitutions).
    ``floor`` is the watermark the sender computed: a lower bound on
    every process's checkpointed round, so a follower that hears only
    the leader still learns how far it may truncate.
    """

    type = "ab.gossip"
    type_id = 1
    fields = ("k", "payloads", "ckpt_k", "known", "want", "floor")

    def __init__(self, k: int, payloads: FrozenSet[AppMessage],
                 ckpt_k: int = 0,
                 known: Optional[FrozenSet[MessageId]] = frozenset(),
                 want: FrozenSet[MessageId] = frozenset(),
                 floor: int = 0):
        self.k = k
        self.payloads = payloads
        self.ckpt_k = ckpt_k
        self.known = known
        self.want = want
        self.floor = floor


class StateMessage(WireMessage):
    """``state(k, …)``: everything through finished round ``k``, in one
    of two forms (Section 5.3; DESIGN.md, substitutions).

    * **Missed rounds** — ``from_k`` is the round the addressee said it
      was in and ``batches`` the decided batches of rounds ``from_k … k``
      in round order.  The receiver commits them through the ordinary ⊕,
      exactly as if it had learned each decision itself, so the message
      costs what the addressee missed, not what the sender holds.
    * **Whole queue** — ``from_k`` is ``None`` and ``agreed_plain`` is
      the sender's queue as produced by
      :meth:`repro.core.agreed.AgreedQueue.to_plain`, adopted wholesale.
      Sent only when a needed decision is no longer held (a joiner, a
      peer stranded below the garbage-collection floor, a sender that
      itself skipped the round).

    ``view_plain`` piggybacks the sender's installed membership view
    (:meth:`repro.membership.manager.ViewManager.to_plain`) when the
    stack is view-parameterised; ``None`` under static membership.  The
    receiver adopts the view *before* delivering anything the message
    carries, so reconfiguration commands inside it are recognised as
    already applied.
    """

    type = "ab.state"
    type_id = 2
    fields = ("k", "agreed_plain", "view_plain", "from_k", "batches")

    def __init__(self, k: int, agreed_plain: Any = None,
                 view_plain: Any = None, from_k: Optional[int] = None,
                 batches: Sequence[FrozenSet[AppMessage]] = ()):
        self.k = k
        self.agreed_plain = agreed_plain
        self.view_plain = view_plain
        self.from_k = from_k
        self.batches = batches
