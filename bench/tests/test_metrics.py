"""Metric definitions, checked on hand-built collector data."""

from repro.core.ids import MessageId
from repro.metrics.collector import MetricsCollector

from bench import metrics as m


def mid(seq, sender=0):
    return MessageId(sender, 1, seq)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert m.percentile(samples, 0.5) == 50
    assert m.percentile(samples, 0.99) == 99
    assert m.percentile([7.0], 0.99) == 7.0
    assert m.percentile([], 0.99) == 0.0


def test_percentile_rule_needs_ten_samples_beyond():
    # p99 of 1000 samples leaves exactly 10 beyond it; of 999, only 9.
    assert m.samples_beyond(1000, 0.99) == 10
    assert m.supports(1000, 0.99)
    assert m.samples_beyond(999, 0.99) == 9
    assert not m.supports(999, 0.99)
    assert m.supports(20, 0.5)
    assert not m.supports(0, 0.5)


def test_latency_is_timed_from_when_the_request_was_due():
    collector = MetricsCollector()
    # Due at 1.0 but the generator ran 0.2 late: the wait still counts.
    collector.note_broadcast(mid(1), "a", 1.2)
    collector.note_delivery(0, mid(1), 1.5)
    collector.note_delivery(1, mid(1), 1.9)     # not the first delivery
    assert m.latencies({mid(1): 1.0, mid(2): 2.0},
                       collector.first_delivery) == [0.5]


def test_service_gap_is_the_longest_silence_while_a_request_waits():
    due = [1.0, 2.0, 3.0, 4.0, 5.0]
    # 1.1 and 2.1 delivered promptly; then nothing until 4.6 (a leader
    # crash).  The gap runs from 3.0, when the next request fell due —
    # from 2.1 to 3.0 nobody was waiting — and the silence after the
    # last delivery of a due request is not an outage either.
    gap = m.service_gap_max(due, [1.1, 2.1, 4.6, 4.7, 5.2])
    assert abs(gap - 1.6) < 1e-9
    # With a backlog, the gap runs from delivery to delivery.
    assert abs(m.service_gap_max([1.0, 1.1, 1.2], [1.3, 3.3, 3.4])
               - 2.0) < 1e-9
    # The wait for the very first delivery counts from the first due.
    assert abs(m.service_gap_max([1.0, 2.0], [1.8, 2.1]) - 0.8) < 1e-9
    assert m.service_gap_max([], []) == 0.0
    # A request that is never delivered is a failure, not a gap.
    assert abs(m.service_gap_max([1.0, 2.0], [1.5]) - 0.5) < 1e-9


def test_median_request_parts_add_up_to_the_median_total():
    keys = list(range(101))
    first = {k: float(k) for k in keys}           # 0..100
    second = {k: 2.0 * (100 - k) for k in keys}   # 200..0
    total = {k: first[k] + second[k] for k in keys}   # 200 - k
    a, b = m.median_request(total, [first, second])
    assert abs((a + b) - m.median(list(total.values()))) <= 5.0
    # Plain medians would claim 50 + 100 = 150 for every request.
    assert a != 50.0 and b != 100.0
    assert m.median_request({}, [first]) == [0.0]


def test_rejoin_ignores_replayed_history():
    collector = MetricsCollector()
    for seq, when in ((1, 1.0), (2, 2.0), (3, 12.0), (4, 13.0)):
        collector.note_broadcast(mid(seq), "p", when)
        collector.note_delivery(0, mid(seq), when + 0.1)
    # Node 1 recovered at 10.0 and replays rounds 1..2 (second stream)
    # before delivering message 3, the first one ordered after 10.0.
    collector.note_delivery(1, mid(1), 10.4, incarnation=2)
    collector.note_delivery(1, mid(2), 10.5, incarnation=2)
    collector.note_delivery(1, mid(3), 12.3, incarnation=2)
    times = m.rejoin_times([(1, 10.0)], collector.deliveries,
                           collector.first_delivery)
    assert len(times) == 1 and abs(times[0] - 2.3) < 1e-9


def test_rejoin_of_a_state_transferred_node_that_never_redelivers():
    collector = MetricsCollector()
    for seq, when in ((1, 1.0), (2, 2.0), (3, 21.0)):
        collector.note_broadcast(mid(seq), "p", when)
        collector.note_delivery(0, mid(seq), when + 0.1)
    # Node 2 recovered at 20.0, adopted a checkpoint covering 1..2 (no
    # delivery upcalls for them at all) and then delivered 3 in step.
    collector.note_delivery(2, mid(3), 21.4, incarnation=3)
    times = m.rejoin_times([(2, 20.0)], collector.deliveries,
                           collector.first_delivery)
    assert len(times) == 1 and abs(times[0] - 1.4) < 1e-9
    # A recovery after which nothing new was ordered gives no sample.
    assert m.rejoin_times([(2, 30.0)], collector.deliveries,
                          collector.first_delivery) == []


def test_delivery_spread_skips_nodes_that_were_down():
    collector = MetricsCollector()
    collector.note_broadcast(mid(1), "p", 5.0)
    collector.note_delivery(0, mid(1), 5.2)
    collector.note_delivery(1, mid(1), 5.5)
    collector.note_delivery(2, mid(1), 30.0)    # was down from 4 to 29
    collector.note_delivery(1, mid(1), 40.0, incarnation=2)   # a replay
    spreads = m.delivery_spreads(collector.deliveries,
                                 collector.first_delivery,
                                 {2: [4.0], 1: [35.0]},
                                 {2: [29.0], 1: [39.0]})
    assert len(spreads) == 1 and abs(spreads[0] - 0.3) < 1e-9


def test_family_totals_group_by_type_prefix():
    totals = m.family_totals({"ab.gossip": 4, "ab.state": 1,
                              "paxos.accept": 2, "other.x": 9},
                             ("ab", "paxos", "fd"))
    assert totals == {"ab": 5, "paxos": 2, "fd": 0}
