"""Unit tests for metric assembly at the cluster level."""

from __future__ import annotations

import pytest

from repro.chaos.inject import FaultSchedule
from repro.harness.cluster import Cluster, ClusterConfig
from repro.transport.network import NetworkConfig
from repro.workloads.generators import ScheduledWorkload


def run_basic(seed=90, faults=None):
    cluster = Cluster(ClusterConfig(
        n=3, seed=seed, protocol="basic",
        network=NetworkConfig(loss_rate=0.05)))
    cluster.start()
    if faults is not None:
        faults.install(cluster.sim, cluster.nodes)
    ScheduledWorkload([(0.5 + 0.2 * j, j % 3, ("m", j))
                       for j in range(9)]).install(cluster)
    cluster.run(until=15.0)
    cluster.settle(within=105.0)
    return cluster


class TestRunMetricsAssembly:
    def test_counts_are_consistent(self):
        cluster = run_basic()
        metrics = cluster.metrics()
        assert metrics.messages_broadcast == 9
        assert metrics.messages_delivered == 9
        assert metrics.duration == cluster.sim.now
        assert metrics.throughput == pytest.approx(
            9 / cluster.sim.now)

    def test_storage_views_cover_every_node(self):
        cluster = run_basic(seed=91)
        metrics = cluster.metrics()
        assert set(metrics.storage_by_node) == {0, 1, 2}
        assert metrics.total_log_ops() == sum(
            node.storage.metrics.log_ops
            for node in cluster.nodes.values())
        assert metrics.total_bytes_logged() > 0
        for node_id in range(3):
            assert metrics.storage_residency[node_id] > 0

    def test_prefix_aggregation_sums_nodes(self):
        cluster = run_basic(seed=92)
        metrics = cluster.metrics()
        per_node_consensus = sum(
            node.storage.metrics.ops_by_prefix.get("consensus", 0)
            for node in cluster.nodes.values())
        assert metrics.log_ops_by_prefix()["consensus"] == \
            per_node_consensus
        assert set(metrics.bytes_by_prefix()) >= {"consensus", "paxos"}

    def test_node_stats_reflect_faults(self):
        faults = FaultSchedule().crash(3.0, 1).recover(5.0, 1)
        cluster = run_basic(seed=93, faults=faults)
        stats = cluster.metrics().node_stats
        assert stats[1]["crashes"] == 1
        assert stats[1]["recoveries"] == 1
        assert stats[0]["crashes"] == 0
        assert stats[1]["uptime"] < stats[0]["uptime"]
        assert stats[1]["up"] is True
        assert len(stats[1]["recovery_durations"]) == 1
        assert stats[1]["replayed_rounds"] >= 0

    def test_network_snapshot(self):
        cluster = run_basic(seed=94)
        metrics = cluster.metrics()
        network = metrics.network
        assert network["sent"] > 0
        assert network["delivered"] <= network["sent"] + \
            network["duplicated"]
        assert network["bytes_sent"] > 0

    def test_latency_summary_shape(self):
        cluster = run_basic(seed=95)
        summary = cluster.metrics().latency_summary()
        assert summary["count"] == 9
        assert 0 < summary["p50"] <= summary["p95"] <= summary["max"]
        assert summary["min"] > 0

    def test_metrics_callable_mid_run(self):
        cluster = Cluster(ClusterConfig(n=3, seed=96, protocol="basic"))
        cluster.start()
        cluster.run(until=1.0)
        metrics = cluster.metrics()  # nothing delivered yet
        assert metrics.messages_delivered == 0
        assert metrics.throughput == 0.0
        assert metrics.latency_summary()["count"] == 0

    def test_app_accessor(self):
        cluster = run_basic(seed=97)
        from repro.apps.counter import SequenceRecorder
        assert isinstance(cluster.app(0), SequenceRecorder)
        assert len(cluster.app(0).entries) == 9


class TestChaosCounters:
    """Fault-injection fields of RunMetrics."""

    def test_plain_run_reports_no_chaos_counters(self):
        metrics = run_basic(seed=98).metrics()
        assert metrics.faults_injected is None
        assert metrics.total_quarantined() == 0
        assert metrics.total_faults_injected() == 0

    def test_quarantine_counter_sums_storage_metrics(self):
        cluster = run_basic(seed=100)
        # Simulate what a recovery scan records on corruption.
        cluster.nodes[1].storage.metrics.quarantined = 2
        cluster.nodes[2].storage.metrics.quarantined = 1
        assert cluster.metrics().total_quarantined() == 3

    def test_faults_injected_total(self):
        from repro.metrics.collector import RunMetrics
        metrics = run_basic(seed=101).metrics()
        rebuilt = RunMetrics(
            metrics.duration, metrics.collector,
            metrics.storage_by_node, metrics.storage_prefix_ops,
            metrics.storage_prefix_bytes, metrics.storage_residency,
            metrics.network, metrics.node_stats,
            faults_injected={"crash": 2, "torn_write": 1})
        assert rebuilt.total_faults_injected() == 3
