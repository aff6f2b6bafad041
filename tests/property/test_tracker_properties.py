"""Property-based tests for the delivered-message tracker.

The tracker is a compressed set; the properties compare it against a
reference ``set`` model under arbitrary insertion sequences.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.ids import MessageId
from repro.core.tracker import DeliveredTracker

message_ids = st.builds(
    MessageId,
    sender=st.integers(min_value=0, max_value=4),
    incarnation=st.integers(min_value=1, max_value=3),
    seq=st.integers(min_value=1, max_value=30),
)

id_lists = st.lists(message_ids, max_size=120)


@given(id_lists)
def test_membership_matches_set_model(ids):
    tracker = DeliveredTracker()
    model = set()
    for mid in ids:
        added = tracker.add(mid)
        assert added == (mid not in model)
        model.add(mid)
    assert len(tracker) == len(model)
    for mid in model:
        assert mid in tracker
    # Nearby non-members are correctly excluded.
    for mid in model:
        probe = MessageId(mid.sender, mid.incarnation, mid.seq + 1000)
        assert probe not in tracker


@given(id_lists)
def test_plain_round_trip_preserves_membership(ids):
    tracker = DeliveredTracker()
    for mid in ids:
        tracker.add(mid)
    clone = DeliveredTracker.from_plain(tracker.to_plain())
    assert len(clone) == len(tracker)
    for mid in ids:
        assert (mid in clone) == (mid in tracker)


@given(id_lists)
def test_insertion_order_irrelevant(ids):
    forward, backward = DeliveredTracker(), DeliveredTracker()
    for mid in ids:
        forward.add(mid)
    for mid in reversed(ids):
        backward.add(mid)
    assert len(forward) == len(backward)
    assert forward.to_plain() == backward.to_plain()


@given(id_lists)
def test_prefix_plus_exceptions_partition_the_set(ids):
    """Every member is either <= prefix or in the exception set, and the
    exception set never overlaps the prefix."""
    tracker = DeliveredTracker()
    model = set()
    for mid in ids:
        tracker.add(mid)
        model.add(mid)
    streams = {(m.sender, m.incarnation) for m in model}
    total = 0
    for sender, incarnation in streams:
        prefix = tracker.prefix_of(sender, incarnation)
        exceptions = tracker.exceptions_of(sender, incarnation)
        assert all(seq > prefix for seq in exceptions)
        member_seqs = {m.seq for m in model
                       if (m.sender, m.incarnation) == (sender, incarnation)}
        assert member_seqs == set(range(1, prefix + 1)) | exceptions \
            or member_seqs == {s for s in member_seqs}  # defensive
        # Exact partition check:
        assert member_seqs == set(range(1, prefix + 1)) | exceptions
        total += prefix + len(exceptions)
    assert total == len(tracker)


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                max_size=50))
def test_fifo_delivery_degenerates_to_plain_vector(seqs):
    """When a stream is delivered in contiguous order the tracker is
    exactly the paper's vector clock (no exceptions)."""
    tracker = DeliveredTracker()
    for seq in range(1, max(seqs) + 1):
        tracker.add(MessageId(0, 1, seq))
    assert tracker.is_plain_vector()
    assert tracker.prefix_of(0, 1) == max(seqs)


@given(id_lists)
def test_copy_independence(ids):
    tracker = DeliveredTracker()
    for mid in ids:
        tracker.add(mid)
    clone = tracker.copy()
    clone.add(MessageId(9, 9, 9))
    assert MessageId(9, 9, 9) not in tracker
