"""End-to-end scenarios: full stacks under load, loss and crash-recovery.

Every test runs a complete scenario through the harness and relies on
:func:`repro.harness.verify.verify_run` to check the four Atomic
Broadcast properties — these are the strongest correctness tests in the
suite.
"""

from __future__ import annotations

import pytest

from repro.chaos.inject import FaultSchedule, RandomFaults
from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario, run_scenario
from repro.transport.network import NetworkConfig
from repro.workloads.generators import (BurstyWorkload, PoissonWorkload,
                                        SkewedWorkload)


class TestFailureFree:
    @pytest.mark.parametrize("protocol", ["basic", "alternative", "eager"])
    def test_lossy_network_all_protocols(self, protocol):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(
                n=3, seed=10, protocol=protocol,
                network=NetworkConfig(loss_rate=0.1, duplicate_rate=0.05)),
            workload=PoissonWorkload(2.0, 10.0, seed=10),
            duration=15.0, settle_limit=90.0))
        assert result.report is not None
        assert result.metrics.messages_delivered == \
            result.metrics.messages_broadcast

    def test_five_nodes_heavier_load(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=5, seed=11, protocol="basic",
                                  network=NetworkConfig(loss_rate=0.05)),
            workload=PoissonWorkload(2.0, 10.0, seed=11),
            duration=15.0, settle_limit=90.0))
        assert result.metrics.messages_delivered > 50

    def test_bursty_traffic_batches_into_rounds(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=12, protocol="basic"),
            workload=BurstyWorkload(burst_size=10, burst_spacing=2.0,
                                    bursts=5, seed=12),
            duration=15.0, settle_limit=60.0))
        delivered = result.metrics.messages_delivered
        rounds = result.report.rounds
        assert delivered == 50
        # Batching: far fewer consensus rounds than messages.
        assert rounds < delivered / 2

    def test_skewed_senders(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=4, seed=13, protocol="alternative"),
            workload=SkewedWorkload(total_messages=60, duration=10.0,
                                    skew=1.2, seed=13),
            duration=15.0, settle_limit=90.0))
        assert result.metrics.messages_delivered == 60


class TestCrashRecovery:
    @pytest.mark.parametrize("protocol", ["basic", "alternative"])
    def test_random_faults_many_seeds(self, protocol):
        for seed in range(3):
            result = run_scenario(Scenario(
                cluster=ClusterConfig(
                    n=3, seed=100 + seed, protocol=protocol,
                    network=NetworkConfig(loss_rate=0.05)),
                workload=PoissonWorkload(1.5, 12.0, seed=100 + seed),
                faults=RandomFaults(mttf=8.0, mttr=2.0, stabilize_at=15.0,
                                    seed=100 + seed),
                duration=25.0, settle_limit=150.0))
            assert result.report is not None

    def test_targeted_crash_of_every_node_in_turn(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=14, protocol="basic",
                                  network=NetworkConfig(loss_rate=0.05)),
            workload=PoissonWorkload(1.5, 15.0, seed=14),
            faults=FaultSchedule()
            .crash(3.0, 0).recover(6.0, 0)
            .crash(7.0, 1).recover(10.0, 1)
            .crash(11.0, 2).recover(14.0, 2),
            duration=25.0, settle_limit=150.0))
        stats = result.metrics.node_stats
        assert all(stats[i]["crashes"] == 1 for i in range(3))
        assert all(stats[i]["recoveries"] == 1 for i in range(3))

    def test_double_crash_same_node(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=15, protocol="alternative",
                                  network=NetworkConfig(loss_rate=0.05)),
            workload=PoissonWorkload(1.5, 15.0, seed=15),
            faults=FaultSchedule()
            .crash(3.0, 2).recover(5.0, 2)
            .crash(8.0, 2).recover(12.0, 2),
            duration=25.0, settle_limit=150.0))
        assert result.metrics.node_stats[2]["crashes"] == 2

    def test_simultaneous_minority_crash(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=5, seed=16, protocol="basic",
                                  network=NetworkConfig(loss_rate=0.05)),
            workload=PoissonWorkload(1.0, 12.0, seed=16),
            faults=FaultSchedule()
            .crash(4.0, 3).crash(4.0, 4)
            .recover(9.0, 3).recover(9.0, 4),
            duration=20.0, settle_limit=150.0))
        assert result.report is not None

    def test_crash_during_recovery_of_another(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=17, protocol="alternative",
                                  network=NetworkConfig(loss_rate=0.05)),
            workload=PoissonWorkload(1.5, 15.0, seed=17),
            faults=FaultSchedule()
            .crash(3.0, 1).recover(6.0, 1)
            .crash(6.2, 2).recover(9.0, 2),
            duration=25.0, settle_limit=150.0))
        assert result.report is not None


class TestNonBlockingLiveness:
    def test_good_nodes_progress_despite_oscillating_bad_node(self):
        """The paper's non-blocking claim: bad processes cannot block
        good ones as long as consensus is live (majority of good)."""
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=4, seed=18, protocol="basic",
                                  network=NetworkConfig(loss_rate=0.05)),
            workload=PoissonWorkload(1.0, 20.0, seed=18),
            faults=RandomFaults(mttf=3.0, mttr=1.0, stabilize_at=22.0,
                                seed=18, bad_nodes=[3]),
            duration=35.0, settle_limit=200.0, good_nodes=[0, 1, 2]))
        assert result.metrics.messages_delivered > 10
        # The bad node oscillated but the good ones delivered everything.
        assert result.metrics.node_stats[3]["crashes"] > 1

    def test_permanently_dead_node_does_not_block(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=19, protocol="basic",
                                  network=NetworkConfig(loss_rate=0.05)),
            workload=PoissonWorkload(1.0, 12.0, seed=19),
            faults=RandomFaults(mttf=4.0, mttr=1.0, stabilize_at=15.0,
                                seed=19, bad_nodes=[2], bad_mode="die"),
            duration=25.0, settle_limit=150.0, good_nodes=[0, 1]))
        assert result.metrics.messages_delivered > 5


class TestPartitions:
    def test_heals_and_converges(self):
        from repro.harness.cluster import Cluster
        cluster = Cluster(ClusterConfig(
            n=3, seed=20, protocol="basic",
            network=NetworkConfig(loss_rate=0.02)))
        cluster.start()
        PoissonWorkload(1.5, 12.0, seed=20).install(cluster)
        cluster.sim.schedule(3.0, cluster.network.partition, 2, 0)
        cluster.sim.schedule(3.0, cluster.network.partition, 2, 1)
        cluster.sim.schedule(8.0, cluster.network.heal_all)
        cluster.run(until=20.0)
        assert cluster.settle(within=100.0)
        from repro.harness.verify import verify_run
        report = verify_run(cluster)
        assert report is not None
