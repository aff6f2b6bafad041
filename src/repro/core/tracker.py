"""Delivered-message tracker: the checkpoint "vector clock" made sound.

Section 5.2 associates a checkpoint vector clock with each application
checkpoint: "the sequence number of the last message delivered from each
process contained in the checkpoint".  A plain last-seq-per-sender vector
is only sound if deliveries are per-sender FIFO; with a lossy network a
sender's later message can be ordered *before* an earlier one (the
earlier one lingered in gossip).  The tracker therefore stores, per
sender stream ``(sender, incarnation)``:

* a contiguous *prefix* — the highest ``seq`` such that all sequence
  numbers ``1..seq`` are delivered (this is the paper's VC entry), and
* an *exception set* — delivered sequence numbers above the prefix.

When deliveries happen to be FIFO the exception sets stay empty and the
representation degenerates to exactly the paper's vector clock; otherwise
it remains a sound, compact membership test for "is m logically contained
in this checkpoint".
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set, Tuple

from repro.core.ids import MessageId

__all__ = ["DeliveredTracker"]

_Stream = Tuple[int, int]  # (sender, incarnation)


class DeliveredTracker:
    """Compact membership set for delivered message ids."""

    __slots__ = ("_prefix", "_exceptions", "_count")

    def __init__(self) -> None:
        self._prefix: Dict[_Stream, int] = {}
        self._exceptions: Dict[_Stream, Set[int]] = {}
        self._count = 0

    # -- mutation ------------------------------------------------------------

    def add(self, mid: MessageId) -> bool:
        """Record ``mid`` as delivered; returns ``False`` if it already was."""
        if mid in self:
            return False
        stream = (mid.sender, mid.incarnation)
        prefix = self._prefix.get(stream, 0)
        exceptions = self._exceptions.setdefault(stream, set())
        if mid.seq == prefix + 1:
            prefix += 1
            while prefix + 1 in exceptions:  # absorb now-contiguous exceptions
                exceptions.discard(prefix + 1)
                prefix += 1
            self._prefix[stream] = prefix
        else:
            exceptions.add(mid.seq)
        if not exceptions:
            self._exceptions.pop(stream, None)
        self._count += 1
        return True

    def add_all(self, mids: Iterable[MessageId]) -> int:
        """Record many ids; returns how many were new."""
        return sum(1 for mid in mids if self.add(mid))

    # -- queries ----------------------------------------------------------------

    def __contains__(self, mid: MessageId) -> bool:
        stream = (mid.sender, mid.incarnation)
        if mid.seq <= self._prefix.get(stream, 0):
            return True
        return mid.seq in self._exceptions.get(stream, ())

    def __len__(self) -> int:
        return self._count

    def prefix_of(self, sender: int, incarnation: int) -> int:
        """The paper's VC entry: contiguous delivered prefix of a stream."""
        return self._prefix.get((sender, incarnation), 0)

    def exceptions_of(self, sender: int, incarnation: int) -> Set[int]:
        """Delivered seqs above the contiguous prefix (empty when FIFO)."""
        return set(self._exceptions.get((sender, incarnation), ()))

    def is_plain_vector(self) -> bool:
        """True when the tracker degenerates to the paper's vector clock."""
        return not self._exceptions

    # -- (de)serialisation ------------------------------------------------------

    def to_plain(self) -> Tuple:
        """A codec-friendly immutable representation (logged inside
        checkpoints)."""
        prefixes = tuple((stream, prefix)
                         for stream, prefix in sorted(self._prefix.items()))
        exceptions = tuple((stream, tuple(sorted(seqs)))
                           for stream, seqs in
                           sorted(self._exceptions.items()))
        return (prefixes, exceptions, self._count)

    @classmethod
    def from_plain(cls, plain: Sequence) -> "DeliveredTracker":
        """Inverse of :meth:`to_plain`."""
        tracker = cls()
        prefixes, exceptions, count = plain
        tracker._prefix = {tuple(stream): prefix
                           for stream, prefix in prefixes}
        tracker._exceptions = {tuple(stream): set(seqs)
                               for stream, seqs in exceptions if seqs}
        tracker._count = count
        return tracker

    def copy(self) -> "DeliveredTracker":
        """An independent deep copy."""
        clone = DeliveredTracker()
        clone._prefix = dict(self._prefix)
        clone._exceptions = {k: set(v) for k, v in self._exceptions.items()}
        clone._count = self._count
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DeliveredTracker({self._count} delivered, "
                f"{len(self._exceptions)} streams with exceptions)")
