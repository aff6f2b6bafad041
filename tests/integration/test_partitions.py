"""Integration tests: partitions, healing, and the PartitionSchedule."""

from __future__ import annotations

import pytest

from repro.chaos.inject import PartitionSchedule
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run
from repro.transport.network import NetworkConfig
from repro.workloads.generators import PoissonWorkload, ScheduledWorkload


def build(n=3, seed=0, protocol="basic"):
    cluster = Cluster(ClusterConfig(
        n=n, seed=seed, protocol=protocol,
        network=NetworkConfig(loss_rate=0.02)))
    cluster.start()
    return cluster


class TestPartitionSchedule:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            PartitionSchedule().isolate(5.0, 5.0, [0])

    def test_cut_and_heal(self):
        cluster = build()
        PartitionSchedule().isolate(1.0, 3.0, [2]).install(
            cluster.sim, cluster.network)
        cluster.run(until=2.0)
        assert cluster.network.is_partitioned(2, 0)
        assert cluster.network.is_partitioned(2, 1)
        assert not cluster.network.is_partitioned(0, 1)
        cluster.run(until=4.0)
        assert not cluster.network.is_partitioned(2, 0)

    def test_minority_partition_then_converge(self):
        cluster = build(seed=21)
        PartitionSchedule().isolate(2.0, 8.0, [2]).install(
            cluster.sim, cluster.network)
        PoissonWorkload(1.0, 10.0, seed=21).install(cluster)
        cluster.run(until=20.0)
        assert cluster.settle(within=180.0)
        verify_run(cluster)
        counts = [ab.delivered_count()
                  for ab in cluster.abcasts.values()]
        assert counts[0] == counts[1] == counts[2] > 0

    def test_majority_side_keeps_ordering_during_partition(self):
        cluster = build(seed=22, n=5)
        PartitionSchedule().isolate(2.0, 12.0, [3, 4]).install(
            cluster.sim, cluster.network)
        plan = [(3.0 + 0.3 * j, j % 3, ("m", j)) for j in range(10)]
        ScheduledWorkload(plan).install(cluster)
        cluster.run(until=10.0)
        # Majority side {0,1,2} ordered everything while cut off.
        assert cluster.abcasts[0].delivered_count() == 10
        assert cluster.abcasts[3].delivered_count() == 0
        cluster.run(until=25.0)
        assert cluster.settle(within=275.0)
        verify_run(cluster)
        assert cluster.abcasts[3].delivered_count() == 10

    def test_minority_side_blocks_no_split_brain(self):
        """Safety: the isolated minority cannot decide on its own."""
        cluster = build(seed=23, n=5)
        PartitionSchedule().isolate(1.0, 40.0, [3, 4]).install(
            cluster.sim, cluster.network)
        cluster.run(until=2.0)
        # Only the minority side submits.
        cluster.submit(3, "minority-message")
        cluster.run(until=30.0)
        # Neither side of the partition delivered it: the minority lacks
        # a quorum and the majority never heard of it.
        assert all(ab.delivered_count() == 0
                   for ab in cluster.abcasts.values())
        # After healing it goes through everywhere.
        cluster.run(until=60.0)
        assert cluster.settle(within=340.0)
        verify_run(cluster)
        assert all(ab.delivered_count() == 1
                   for ab in cluster.abcasts.values())

    def test_repeated_flapping_partitions(self):
        cluster = build(seed=24)
        schedule = PartitionSchedule()
        for window in range(4):
            start = 2.0 + window * 3.0
            schedule.isolate(start, start + 1.5, [window % 3])
        schedule.install(cluster.sim, cluster.network)
        PoissonWorkload(1.0, 14.0, seed=24).install(cluster)
        cluster.run(until=25.0)
        assert cluster.settle(within=275.0)
        verify_run(cluster)
