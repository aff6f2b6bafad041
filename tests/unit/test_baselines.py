"""Unit tests for the baseline total-order protocols."""

from __future__ import annotations

from repro.harness.cluster import Cluster, ClusterConfig
from repro.transport.network import NetworkConfig


def build(protocol, n=3, seed=0, loss=0.0):
    cluster = Cluster(ClusterConfig(
        n=n, seed=seed, protocol=protocol,
        network=NetworkConfig(loss_rate=loss)))
    cluster.start()
    return cluster


def sequences(cluster):
    return {i: [m.payload for m in ab.deliver_sequence()]
            for i, ab in cluster.abcasts.items()}


def pump(cluster, count, node=0, start=0.5, gap=0.2):
    for j in range(count):
        cluster.sim.schedule(start + gap * j, cluster.submit, node, f"m{j}")


class TestChandraTouegBaseline:
    def test_total_order_failure_free(self):
        cluster = build("ct")
        for i in range(3):
            for j in range(4):
                cluster.sim.schedule(0.5 + 0.2 * j + 0.05 * i,
                                     cluster.submit, i, f"p{i}m{j}")
        cluster.run(until=20.0)
        seqs = sequences(cluster)
        assert len(seqs[0]) == 12
        assert seqs[0] == seqs[1] == seqs[2]

    def test_zero_log_operations(self):
        """The reduction claim (Section 5.6): crash-stop ⇒ no logging."""
        cluster = build("ct")
        pump(cluster, 10)
        cluster.run(until=20.0)
        assert all(node.storage.metrics.log_ops == 0
                   for node in cluster.nodes.values())

    def test_survives_minority_crash_stop(self):
        cluster = build("ct", seed=1)
        pump(cluster, 4)
        cluster.run(until=5.0)
        cluster.nodes[2].crash()  # definitive, never recovers
        pump(cluster, 4, start=5.5)
        cluster.run(until=30.0)
        seqs = sequences(cluster)
        assert seqs[0] == seqs[1]
        assert len(seqs[0]) == 8


class TestEagerBaseline:
    def test_orders_correctly(self):
        cluster = build("eager", seed=2)
        pump(cluster, 6)
        cluster.run(until=20.0)
        seqs = sequences(cluster)
        assert seqs[0] == seqs[1] == seqs[2]
        assert len(seqs[0]) == 6

    def test_logs_much_more_than_basic(self):
        def ab_log_ops(protocol):
            cluster = build(protocol, seed=3)
            pump(cluster, 10)
            cluster.run(until=20.0)
            return sum(node.storage.metrics.ops_by_prefix.get("ab", 0)
                       for node in cluster.nodes.values())

        assert ab_log_ops("eager") > 10 * ab_log_ops("basic")

    def test_fast_recovery_from_logged_state(self):
        cluster = build("eager", seed=4)
        pump(cluster, 8)
        cluster.run(until=15.0)
        cluster.nodes[1].crash()
        cluster.nodes[1].recover()
        cluster.run(until=40.0)
        assert cluster.abcasts[1].replayed_rounds == 0  # restored, not replayed
        assert sequences(cluster)[1] == sequences(cluster)[0]


class TestSequencerBaseline:
    def test_total_order_failure_free(self):
        cluster = build("sequencer", seed=5)
        for i in range(3):
            for j in range(4):
                cluster.sim.schedule(0.5 + 0.2 * j + 0.05 * i,
                                     cluster.submit, i, f"p{i}m{j}")
        cluster.run(until=20.0)
        seqs = sequences(cluster)
        assert len(seqs[0]) == 12
        assert seqs[0] == seqs[1] == seqs[2]

    def test_gap_repair_over_lossy_network(self):
        cluster = build("sequencer", seed=6, loss=0.2)
        pump(cluster, 10, node=1)
        cluster.run(until=40.0)
        seqs = sequences(cluster)
        assert seqs[0] == seqs[1] == seqs[2]
        assert len(seqs[0]) == 10

    def test_lower_latency_than_consensus(self):
        def p50(protocol):
            cluster = build(protocol, seed=7)
            pump(cluster, 10)
            cluster.run(until=30.0)
            return cluster.metrics().latency_summary()["p50"]

        assert p50("sequencer") < p50("basic")

    def test_sequencer_crash_stops_ordering(self):
        """The documented weakness: no fault tolerance."""
        cluster = build("sequencer", seed=8)
        pump(cluster, 3)
        cluster.run(until=3.0)
        cluster.nodes[0].crash()  # the sequencer
        pump(cluster, 3, node=1, start=3.5)
        cluster.run(until=20.0)
        assert len(sequences(cluster)[1]) == 3  # nothing new ordered

    def test_blocking_broadcast(self):
        cluster = build("sequencer", seed=9)
        done = []

        def client():
            yield 0.5
            yield from cluster.abcasts[1].broadcast("b")
            done.append(cluster.sim.now)

        cluster.nodes[1].spawn(client(), "client")
        cluster.run(until=10.0)
        assert done and done[0] > 0.5
