"""Scale and stress scenarios: larger clusters, longer runs, churn.

These runs are sized to stay in CI-friendly territory (a few seconds
each) while exercising regimes the targeted tests do not: seven and nine
node clusters, hundreds of messages, continuous churn with several nodes
down at once, and duplication + loss + crash interplay.
"""

from __future__ import annotations

import pytest

from repro.chaos.inject import RandomFaults
from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario, run_scenario
from repro.transport.network import NetworkConfig
from repro.workloads.generators import BurstyWorkload, PoissonWorkload


class TestScale:
    @pytest.mark.parametrize("n", [7, 9])
    def test_larger_clusters_order_and_verify(self, n):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=n, seed=50 + n, protocol="basic",
                                  network=NetworkConfig(loss_rate=0.03)),
            workload=PoissonWorkload(1.0, 8.0, seed=50 + n),
            duration=12.0, settle_limit=150.0))
        assert result.metrics.messages_delivered == \
            result.metrics.messages_broadcast
        assert result.metrics.messages_delivered >= n * 4

    def test_hundreds_of_messages(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=60, protocol="alternative",
                                  network=NetworkConfig(loss_rate=0.02),
                                  alt=AlternativeConfig(
                                      checkpoint_interval=2.0)),
            workload=PoissonWorkload(15.0, 10.0, seed=60),
            duration=14.0, settle_limit=150.0))
        assert result.metrics.messages_delivered > 350
        # Heavy load batches into far fewer rounds than messages.
        assert result.report.rounds < \
            result.metrics.messages_delivered / 3

    def test_big_bursts(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=61, protocol="basic"),
            workload=BurstyWorkload(burst_size=40, burst_spacing=3.0,
                                    bursts=4, seed=61),
            duration=18.0, settle_limit=200.0))
        assert result.metrics.messages_delivered == 160


class TestChurn:
    def test_continuous_churn_five_nodes(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=5, seed=62, protocol="alternative",
                                  network=NetworkConfig(loss_rate=0.05),
                                  alt=AlternativeConfig(
                                      checkpoint_interval=2.0, delta=3)),
            workload=PoissonWorkload(1.0, 18.0, seed=62),
            faults=RandomFaults(mttf=5.0, mttr=1.5, stabilize_at=22.0,
                                seed=62),
            duration=35.0, settle_limit=400.0))
        total_crashes = sum(stats["crashes"] for stats in
                            result.metrics.node_stats.values())
        assert total_crashes >= 5
        assert result.report is not None

    def test_loss_duplication_and_crashes_together(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(
                n=3, seed=63, protocol="alternative",
                network=NetworkConfig(loss_rate=0.15,
                                      duplicate_rate=0.15),
                alt=AlternativeConfig(checkpoint_interval=1.5, delta=2,
                                      log_unordered=True)),
            workload=PoissonWorkload(1.0, 12.0, seed=63),
            faults=RandomFaults(mttf=6.0, mttr=1.5, stabilize_at=15.0,
                                seed=63),
            duration=25.0, settle_limit=400.0))
        assert result.report is not None
        # log_unordered: nothing submitted while up may be lost.
        assert result.metrics.messages_delivered == \
            result.metrics.messages_broadcast

    def test_repeated_crashes_of_same_node(self):
        from repro.chaos.inject import FaultSchedule
        schedule = FaultSchedule()
        for round_no in range(4):
            schedule.crash(2.0 + round_no * 3.0, 1)
            schedule.recover(3.2 + round_no * 3.0, 1)
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=64, protocol="basic",
                                  network=NetworkConfig(loss_rate=0.05)),
            workload=PoissonWorkload(1.0, 14.0, seed=64),
            faults=schedule,
            duration=25.0, settle_limit=300.0))
        assert result.metrics.node_stats[1]["crashes"] == 4
        assert result.metrics.node_stats[1]["recoveries"] == 4


class TestDeterminismAtScale:
    def test_full_stress_run_is_bitwise_deterministic(self):
        def digest():
            result = run_scenario(Scenario(
                cluster=ClusterConfig(
                    n=5, seed=65, protocol="alternative",
                    network=NetworkConfig(loss_rate=0.1,
                                          duplicate_rate=0.05),
                    alt=AlternativeConfig(checkpoint_interval=2.0,
                                          delta=2)),
                workload=PoissonWorkload(1.5, 10.0, seed=65),
                faults=RandomFaults(mttf=5.0, mttr=1.5,
                                    stabilize_at=13.0, seed=65),
                duration=22.0, settle_limit=300.0))
            return (tuple(result.report.canonical),
                    result.metrics.total_log_ops(),
                    result.metrics.network["sent"],
                    tuple(sorted(result.metrics.collector
                                 .first_delivery.items())))

        assert digest() == digest()
