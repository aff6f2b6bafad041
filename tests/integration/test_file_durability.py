"""Integration: the full protocol stack running on file-backed storage.

Demonstrates that the protocols are substrate-agnostic: the same code
paths write real JSON files through the atomic write-temp-rename pattern,
and a recovering node replays from what is physically on disk.
"""

from __future__ import annotations

import os

import pytest

from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run
from repro.storage.file import FileStorage
from repro.transport.network import NetworkConfig
from repro.workloads.generators import ScheduledWorkload


@pytest.fixture
def file_cluster(tmp_path):
    config = ClusterConfig(
        n=3, seed=50, protocol="basic",
        network=NetworkConfig(loss_rate=0.02),
        storage_factory=lambda i: FileStorage(str(tmp_path / f"node{i}")))
    cluster = Cluster(config)
    cluster.start()
    return cluster, tmp_path


class TestFileBackedCluster:
    def test_orders_and_verifies_on_disk(self, file_cluster):
        cluster, tmp_path = file_cluster
        plan = [(0.5 + 0.2 * j, j % 3, ("op", j)) for j in range(12)]
        ScheduledWorkload(plan).install(cluster)
        cluster.run(until=15.0)
        assert cluster.settle(within=75.0)
        verify_run(cluster)
        # Acceptor records physically exist as files, and they are all
        # the consensus box logs: the leader's proposals are its own.
        node0_files = os.listdir(str(tmp_path / "node0"))
        assert any("paxos" in name for name in node0_files)
        assert not any("consensus" in name for name in node0_files)

    def test_recovery_replays_from_disk(self, file_cluster):
        cluster, tmp_path = file_cluster
        plan = [(0.5 + 0.2 * j, 0, ("op", j)) for j in range(10)]
        ScheduledWorkload(plan).install(cluster)
        cluster.run(until=10.0)
        before = [m.payload for m in cluster.abcasts[1].deliver_sequence()]
        cluster.nodes[1].crash()
        cluster.run(until=11.0)
        cluster.nodes[1].recover()
        cluster.run(until=50.0)
        after = [m.payload for m in cluster.abcasts[1].deliver_sequence()]
        assert after[:len(before)] == before
        assert len(after) == 10

    def test_fresh_storage_object_reads_same_log(self, file_cluster):
        """Simulates a true OS-level process restart: a brand-new
        FileStorage over the same directory sees the same durable state."""
        cluster, tmp_path = file_cluster
        plan = [(0.5 + 0.2 * j, 0, ("op", j)) for j in range(5)]
        ScheduledWorkload(plan).install(cluster)
        cluster.run(until=10.0)
        old = cluster.nodes[0].storage
        reopened = FileStorage(old.directory)
        assert sorted(reopened.keys()) == sorted(old.keys())
        for key in old.keys():
            assert reopened.retrieve(key) == old.retrieve(key)
