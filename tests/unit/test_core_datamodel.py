"""Unit tests for message ids, the delivered tracker and the Agreed queue."""

from __future__ import annotations

import pytest

from repro.core.agreed import AgreedQueue, deterministic_order
from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.core.tracker import DeliveredTracker
from repro.storage import codec


def msg(sender, seq, incarnation=1, payload=None):
    return AppMessage(MessageId(sender, incarnation, seq), payload)


class TestMessageId:
    def test_ordering_is_lexicographic(self):
        assert MessageId(0, 1, 2) < MessageId(0, 1, 3)
        assert MessageId(0, 2, 1) < MessageId(1, 1, 1)
        assert MessageId(0, 1, 9) < MessageId(0, 2, 1)

    def test_label(self):
        assert MessageId(2, 1, 15).label() == "2.1.15"


class TestAppMessage:
    def test_equality_by_identity_only(self):
        a = msg(0, 1, payload="x")
        b = msg(0, 1, payload="completely different")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_inequality_across_ids(self):
        assert msg(0, 1) != msg(0, 2)
        assert msg(0, 1, incarnation=1) != msg(0, 1, incarnation=2)

    def test_sort_key_matches_id(self):
        assert msg(3, 7).sort_key() == (3, 1, 7)

    def test_deterministic_order_sorts_by_id(self):
        batch = [msg(2, 1), msg(0, 5), msg(0, 2), msg(1, 9)]
        ordered = deterministic_order(batch)
        assert [m.id for m in ordered] == sorted(m.id for m in batch)


class TestDeliveredTracker:
    def test_add_and_membership(self):
        tracker = DeliveredTracker()
        assert tracker.add(MessageId(0, 1, 1))
        assert MessageId(0, 1, 1) in tracker
        assert MessageId(0, 1, 2) not in tracker

    def test_add_duplicate_returns_false(self):
        tracker = DeliveredTracker()
        tracker.add(MessageId(0, 1, 1))
        assert not tracker.add(MessageId(0, 1, 1))
        assert len(tracker) == 1

    def test_contiguous_prefix_advances(self):
        tracker = DeliveredTracker()
        for seq in (1, 2, 3):
            tracker.add(MessageId(0, 1, seq))
        assert tracker.prefix_of(0, 1) == 3
        assert tracker.exceptions_of(0, 1) == set()
        assert tracker.is_plain_vector()

    def test_out_of_order_becomes_exception(self):
        tracker = DeliveredTracker()
        tracker.add(MessageId(0, 1, 3))
        assert tracker.prefix_of(0, 1) == 0
        assert tracker.exceptions_of(0, 1) == {3}
        assert not tracker.is_plain_vector()

    def test_gap_fill_absorbs_exceptions(self):
        tracker = DeliveredTracker()
        for seq in (3, 2, 5):
            tracker.add(MessageId(0, 1, seq))
        tracker.add(MessageId(0, 1, 1))  # fills the gap: 1,2,3 contiguous
        assert tracker.prefix_of(0, 1) == 3
        assert tracker.exceptions_of(0, 1) == {5}
        tracker.add(MessageId(0, 1, 4))
        assert tracker.prefix_of(0, 1) == 5
        assert tracker.is_plain_vector()

    def test_streams_are_independent(self):
        tracker = DeliveredTracker()
        tracker.add(MessageId(0, 1, 1))
        tracker.add(MessageId(1, 1, 7))
        assert tracker.prefix_of(0, 1) == 1
        assert tracker.prefix_of(1, 1) == 0
        assert tracker.exceptions_of(1, 1) == {7}

    def test_incarnations_are_separate_streams(self):
        tracker = DeliveredTracker()
        tracker.add(MessageId(0, 1, 1))
        tracker.add(MessageId(0, 2, 1))
        assert tracker.prefix_of(0, 1) == 1
        assert tracker.prefix_of(0, 2) == 1
        assert len(tracker) == 2

    def test_plain_round_trip(self):
        tracker = DeliveredTracker()
        for sender, seq in ((0, 1), (0, 3), (1, 1), (1, 2), (2, 9)):
            tracker.add(MessageId(sender, 1, seq))
        clone = DeliveredTracker.from_plain(tracker.to_plain())
        assert len(clone) == len(tracker)
        for sender, seq in ((0, 1), (0, 3), (1, 1), (1, 2), (2, 9)):
            assert MessageId(sender, 1, seq) in clone
        assert MessageId(0, 1, 2) not in clone

    def test_copy_is_independent(self):
        tracker = DeliveredTracker()
        tracker.add(MessageId(0, 1, 1))
        clone = tracker.copy()
        clone.add(MessageId(0, 1, 2))
        assert MessageId(0, 1, 2) not in tracker
        assert MessageId(0, 1, 2) in clone

    def test_add_all_counts_new(self):
        tracker = DeliveredTracker()
        added = tracker.add_all([MessageId(0, 1, 1), MessageId(0, 1, 1),
                                 MessageId(0, 1, 2)])
        assert added == 2


class TestAgreedQueue:
    def test_append_batch_deterministic_order(self):
        queue = AgreedQueue()
        batch = {msg(2, 1), msg(0, 1), msg(1, 1)}
        appended = queue.append_batch(batch)
        assert [m.id.sender for m in appended] == [0, 1, 2]
        assert [m.id.sender for m in queue.sequence()] == [0, 1, 2]

    def test_append_is_idempotent(self):
        """The ⊕ operation: adding twice equals adding once (Section 4.1)."""
        queue = AgreedQueue()
        queue.append_batch([msg(0, 1), msg(0, 2)])
        again = queue.append_batch([msg(0, 1), msg(0, 2)])
        assert again == []
        assert len(queue.sequence()) == 2
        assert len(queue) == 2

    def test_partial_overlap_appends_only_new(self):
        queue = AgreedQueue()
        queue.append_batch([msg(0, 1)])
        appended = queue.append_batch([msg(0, 1), msg(0, 2)])
        assert [m.id.seq for m in appended] == [2]

    def test_membership(self):
        queue = AgreedQueue()
        queue.append_batch([msg(0, 1)])
        assert msg(0, 1) in queue
        assert MessageId(0, 1, 1) in queue
        assert (0, 1, 1) in queue
        assert msg(0, 2) not in queue

    def test_compact_absorbs_prefix(self):
        queue = AgreedQueue()
        queue.append_batch([msg(0, 1), msg(0, 2)])
        absorbed = queue.compact({"state": "s1"})
        assert absorbed == 2
        assert queue.sequence() == []
        assert queue.checkpointed_count == 2
        assert len(queue) == 2
        assert msg(0, 1) in queue  # still a member, via the checkpoint

    def test_append_after_compact(self):
        queue = AgreedQueue()
        queue.append_batch([msg(0, 1)])
        queue.compact("ckpt")
        queue.append_batch([msg(0, 2)])
        assert [m.id.seq for m in queue.sequence()] == [2]
        assert len(queue) == 2
        # Re-appending a checkpointed message is still a no-op.
        assert queue.append_batch([msg(0, 1)]) == []

    def test_plain_round_trip(self):
        queue = AgreedQueue()
        queue.append_batch([msg(0, 1), msg(1, 1)])
        queue.compact({"v": 1})
        queue.append_batch([msg(0, 2)])
        clone = AgreedQueue.from_plain(queue.to_plain())
        assert clone.checkpoint_state == {"v": 1}
        assert [m.id for m in clone.sequence()] == \
            [m.id for m in queue.sequence()]
        assert len(clone) == len(queue)
        assert msg(1, 1) in clone

    def test_round_trip_without_checkpoint(self):
        queue = AgreedQueue()
        queue.append_batch([msg(0, 1)])
        clone = AgreedQueue.from_plain(queue.to_plain())
        assert clone.checkpoint_state is None
        assert clone.checkpoint_tracker is None
        assert len(clone) == 1

    def test_size_grows_with_content(self):
        queue = AgreedQueue()
        empty = codec.size(queue.to_plain())
        queue.append_batch([msg(0, 1, payload="x" * 200)])
        assert codec.size(queue.to_plain()) > empty + 200
