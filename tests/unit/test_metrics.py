"""Unit tests for metric collection and statistics helpers."""

from __future__ import annotations

import pytest

from repro.core.ids import MessageId
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.metrics.stats import mean, percentile, stdev, summarize


class TestStats:
    def test_mean_empty_and_values(self):
        assert mean([]) == 0.0
        assert mean([1, 2, 3]) == 2.0

    def test_stdev(self):
        assert stdev([]) == 0.0
        assert stdev([5]) == 0.0
        assert stdev([2, 2, 2]) == 0.0
        assert stdev([0, 10]) == 5.0

    def test_percentile_bounds(self):
        values = list(range(101))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 100
        assert percentile(values, 50) == 50

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 50) == 5.0
        assert percentile([0, 10], 25) == 2.5

    def test_percentile_edge_cases(self):
        assert percentile([], 50) == 0.0
        assert percentile([7], 99) == 7

    def test_percentile_range_validated(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_summarize_keys(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["count"] == 3
        assert summary["mean"] == 2.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["p50"] == 2.0


class TestCollector:
    def test_latency_from_broadcast_to_first_delivery(self):
        collector = MetricsCollector()
        mid = MessageId(0, 1, 1)
        collector.note_broadcast(mid, "p", time=1.0)
        collector.note_delivery(0, mid, time=3.0)
        collector.note_delivery(1, mid, time=4.0)  # later copies ignored
        assert collector.delivery_latencies == [2.0]

    def test_duplicate_broadcast_note_ignored(self):
        collector = MetricsCollector()
        mid = MessageId(0, 1, 1)
        collector.note_broadcast(mid, "p", time=1.0)
        collector.note_broadcast(mid, "p", time=9.0)
        assert collector.broadcast_times[mid] == 1.0

    def test_applied_per_stream(self):
        collector = MetricsCollector()
        a, b = MessageId(0, 1, 1), MessageId(0, 1, 2)
        collector.note_delivery(0, a, 1.0, 1)
        collector.note_delivery(0, b, 2.0, 1)
        collector.note_delivery(1, a, 2.5, 1)
        collector.note_delivery(0, a, 3.0, 2)  # replay
        assert collector.applied() == {(0, 1): [a, b], (1, 1): [a],
                                       (0, 2): [a]}

    def test_node_round_and_restore_facts_fold_into_streams(self):
        collector = MetricsCollector()

        def emit(category, action, **details):
            collector.record(1.0, category, 0, action, (), details)

        emit("node", "start")
        emit("round", "commit", k=0, batch=3, new=2)
        emit("round", "commit", k=1, batch=1, new=0)
        assert (collector.up, collector.rounds) == ({0: True}, {0: 2})
        emit("node", "crash")
        emit("node", "recover")
        emit("deliver", "restore", base=1, count=2, k=2)
        emit("round", "commit", k=2, batch=1, new=1)
        assert collector.streams == {0: [[0, 2], [0, 0], [1, 3]]}
        assert collector.rounds == {0: 3} and collector.crash_times[0]
        emit("state-transfer", "joining")
        assert collector.joining == {0}
        emit("state-transfer", "join-complete")
        assert collector.joining == set()

    def test_decision_archive_and_conflicts(self):
        collector = MetricsCollector()
        collector.note_decision(0, frozenset({"a"}))
        collector.note_decision(0, frozenset({"a"}))
        assert collector.decision_conflicts == []
        collector.note_decision(0, frozenset({"b"}))
        assert len(collector.decision_conflicts) == 1


def make_metrics(collector=None, prefix_ops=None):
    collector = collector or MetricsCollector()
    return RunMetrics(
        duration=10.0, collector=collector,
        storage_by_node={0: {"log_ops": 5, "bytes_logged": 100,
                             "retrievals": 0, "deletes": 0}},
        storage_prefix_ops={0: prefix_ops or {"consensus": 4, "ab": 1}},
        storage_prefix_bytes={0: {"consensus": 80, "ab": 20}},
        storage_residency={0: 50},
        network={"sent": 10, "delivered": 9, "lost": 1,
                 "dropped_down": 0, "duplicated": 0, "bytes_sent": 500},
        node_stats={0: {}},
    )


class TestRunMetrics:
    def test_throughput(self):
        collector = MetricsCollector()
        for seq in range(4):
            mid = MessageId(0, 1, seq + 1)
            collector.note_broadcast(mid, None, 0.0)
            collector.note_delivery(0, mid, 1.0)
        metrics = make_metrics(collector)
        assert metrics.messages_delivered == 4
        assert metrics.throughput == pytest.approx(0.4)

    def test_log_op_views(self):
        metrics = make_metrics()
        assert metrics.total_log_ops() == 5
        assert metrics.total_bytes_logged() == 100
        assert metrics.log_ops_by_prefix() == {"consensus": 4, "ab": 1}
        assert metrics.bytes_by_prefix() == {"consensus": 80, "ab": 20}

    def test_log_ops_per_delivery(self):
        collector = MetricsCollector()
        for seq in range(5):
            mid = MessageId(0, 1, seq + 1)
            collector.note_broadcast(mid, None, 0.0)
            collector.note_delivery(0, mid, 1.0)
        metrics = make_metrics(collector)
        assert metrics.log_ops_per_delivery() == 1.0
        assert metrics.log_ops_per_delivery({"ab"}) == pytest.approx(0.2)

    def test_zero_division_guards(self):
        metrics = make_metrics()
        assert metrics.log_ops_per_delivery() == 0.0
        assert make_metrics().throughput == 0.0


class TestSummarizeSingleSort:
    """Regression for the single-sort summarize (was 3 sorts + min + max)."""

    def test_matches_per_percentile_calls(self):
        import random
        rng = random.Random(42)
        for trial in range(50):
            size = rng.randrange(0, 40)
            sample = [rng.uniform(-100, 100) for _ in range(size)]
            rng.shuffle(sample)
            summary = summarize(sample)
            assert summary["count"] == float(len(sample))
            assert summary["mean"] == mean(sample)
            for q in (50, 95, 99):
                assert summary[f"p{q}"] == percentile(sample, q)
            assert summary["min"] == (min(sample) if sample else 0.0)
            assert summary["max"] == (max(sample) if sample else 0.0)

    def test_percentile_of_sorted_requires_sorted_for_equality(self):
        from repro.metrics.stats import percentile_of_sorted
        sample = [5.0, 1.0, 9.0, 3.0]
        assert percentile_of_sorted(sorted(sample), 50) \
            == percentile(sample, 50)

    def test_input_not_mutated(self):
        sample = [3.0, 1.0, 2.0]
        summarize(sample)
        assert sample == [3.0, 1.0, 2.0]


class TestCollectorEdgeCases:
    """Documented behaviour at the awkward corners of observation."""

    def test_delivery_before_broadcast_recorded_without_latency(self):
        # A delivery can be observed for a message whose broadcast was
        # never recorded (e.g. state adopted from a peer that predates
        # instrumentation).  The delivery must still count for ordering,
        # but no latency sample can exist — and the omission is counted.
        collector = MetricsCollector()
        mid = MessageId(2, 0, 7)
        collector.note_delivery(0, mid, time=5.0)
        assert collector.deliveries == [(0, 0, mid, 5.0)]
        assert collector.first_delivery[mid] == 5.0
        assert collector.delivery_latencies == []
        assert collector.latency_skipped == 1
        # A later broadcast note does not retroactively create a sample.
        collector.note_broadcast(mid, "late", time=6.0)
        collector.note_delivery(1, mid, time=7.0)
        assert collector.delivery_latencies == []
        assert collector.latency_skipped == 1

    def test_rebroadcast_of_duplicate_mid_after_recovery(self):
        # A recovered sender re-submitting the same MessageId must not
        # reset the broadcast clock: latency is measured from the first
        # submission, and the original payload wins.
        collector = MetricsCollector()
        mid = MessageId(1, 1, 3)
        collector.note_broadcast(mid, "original", time=1.0)
        collector.note_broadcast(mid, "replayed", time=9.0)  # recovery
        collector.note_delivery(0, mid, time=10.0)
        assert collector.broadcast_times[mid] == 1.0
        assert collector.broadcast_payloads[mid] == "original"
        assert collector.delivery_latencies == [9.0]
        assert collector.latency_skipped == 0
        assert collector.broadcast_ids() == {mid}
