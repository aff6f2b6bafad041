"""Integration tests focused on the three recovery paths of the paper.

1. Full replay from round 0 (basic protocol, Section 4.2).
2. Replay from a durable checkpoint (Section 5.1).
3. State transfer, skipping missed instances (Section 5.3).
"""

from __future__ import annotations

from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run
from repro.transport.network import NetworkConfig
from repro.workloads.generators import ScheduledWorkload


def build(protocol="alternative", alt=None, seed=0, n=3,
          app_factory=None):
    extra = {"app_factory": app_factory} if app_factory else {}
    cluster = Cluster(ClusterConfig(
        n=n, seed=seed, protocol=protocol,
        network=NetworkConfig(loss_rate=0.05),
        alt=alt, **extra))
    cluster.start()
    return cluster


def steady_load(cluster, count, start=0.5, gap=0.25):
    plan = [(start + gap * j, j % len(cluster.nodes), ("m", j))
            for j in range(count)]
    ScheduledWorkload(plan).install(cluster)


class TestReplayFromZero:
    def test_replay_work_grows_with_history(self):
        """Basic protocol: the longer the history, the longer the replay —
        the cost Section 5.1 is designed to cut."""
        def replayed_after(history_len):
            cluster = build(protocol="basic", seed=40)
            steady_load(cluster, history_len, gap=0.2)
            cluster.run(until=history_len * 0.2 + 6.0)
            cluster.nodes[1].crash()
            cluster.nodes[1].recover()
            cluster.run(until=history_len * 0.2 + 40.0)
            return cluster.abcasts[1].replayed_rounds

        short = replayed_after(5)
        long = replayed_after(25)
        assert long > short

    def test_replay_preserves_exact_prefix(self):
        cluster = build(protocol="basic", seed=41)
        steady_load(cluster, 12)
        cluster.run(until=10.0)
        before = [m.id for m in cluster.abcasts[0].deliver_sequence()]
        cluster.nodes[0].crash()
        cluster.run(until=11.0)
        cluster.nodes[0].recover()
        cluster.run(until=50.0)
        after = [m.id for m in cluster.abcasts[0].deliver_sequence()]
        assert after[:len(before)] == before
        assert cluster.settle(within=70.0)
        verify_run(cluster)


class TestReplayFromCheckpoint:
    def test_checkpoint_bounds_replay_work(self):
        def replayed(checkpoint_interval):
            alt = AlternativeConfig(checkpoint_interval=checkpoint_interval,
                                    delta=None)
            cluster = build(alt=alt, seed=42)
            steady_load(cluster, 25, gap=0.2)
            cluster.run(until=12.0)
            cluster.nodes[1].crash()
            cluster.nodes[1].recover()
            cluster.run(until=60.0)
            return cluster.abcasts[1].replayed_rounds

        frequent = replayed(0.5)
        rare = replayed(20.0)  # effectively never checkpoints before crash
        assert frequent < rare

    def test_checkpointed_recovery_verifies(self):
        cluster = build(alt=AlternativeConfig(checkpoint_interval=1.0),
                        seed=43)
        steady_load(cluster, 20, gap=0.2)
        cluster.run(until=8.0)
        cluster.nodes[2].crash()
        cluster.run(until=9.0)
        cluster.nodes[2].recover()
        cluster.run(until=30.0)
        assert cluster.settle(within=90.0)
        verify_run(cluster)


class TestStateTransferPath:
    def test_state_transfer_beats_replay_for_long_outage(self):
        """With Δ small, a long-dead node adopts state and skips rounds."""
        alt = AlternativeConfig(checkpoint_interval=2.0, delta=2)
        cluster = build(alt=alt, seed=44)
        cluster.run(until=1.0)
        cluster.nodes[2].crash()
        steady_load(cluster, 40, start=1.5, gap=0.15)
        cluster.run(until=10.0)
        rounds_at_up_nodes = cluster.abcasts[0].k
        cluster.nodes[2].recover()
        cluster.run(until=60.0)
        ab = cluster.abcasts[2]
        assert ab.rounds_skipped > 0
        # It did not replay anywhere near the full history.
        assert ab.replayed_rounds < rounds_at_up_nodes / 2
        assert cluster.settle(within=120.0)
        verify_run(cluster)

    def test_app_state_carried_by_state_message(self):
        from repro.apps.kvstore import KeyValueStore
        alt = AlternativeConfig(checkpoint_interval=2.0, delta=2)
        cluster = build(alt=alt, seed=45, app_factory=KeyValueStore)
        cluster.run(until=1.0)
        cluster.nodes[2].crash()
        plan = [(1.5 + 0.15 * j, 0, ("put", f"k{j}", j)) for j in range(30)]
        ScheduledWorkload(plan).install(cluster)
        cluster.run(until=10.0)
        cluster.nodes[2].recover()
        cluster.run(until=60.0)
        assert cluster.settle(within=120.0)
        assert cluster.app(2).data == cluster.app(0).data
        verify_run(cluster)

    def test_all_three_paths_in_one_run(self):
        """Crash three nodes at different times with different outage
        lengths; whatever mix of paths they take, the run must verify."""
        alt = AlternativeConfig(checkpoint_interval=1.5, delta=3)
        cluster = build(alt=alt, seed=46)
        steady_load(cluster, 50, gap=0.2)
        cluster.sim.schedule(2.0, cluster.nodes[0].crash)
        cluster.sim.schedule(2.8, cluster.nodes[0].recover)   # short
        cluster.sim.schedule(4.0, cluster.nodes[1].crash)
        cluster.sim.schedule(7.0, cluster.nodes[1].recover)   # medium
        cluster.sim.schedule(5.0, cluster.nodes[2].crash)
        cluster.sim.schedule(11.0, cluster.nodes[2].recover)  # long
        cluster.run(until=25.0)
        assert cluster.settle(within=175.0)
        verify_run(cluster)
        seqs = [[m.id for m in ab.deliver_sequence()]
                for ab in cluster.abcasts.values()]
        # All nodes converged to the same delivered set.
        counts = [ab.delivered_count() for ab in cluster.abcasts.values()]
        assert counts[0] == counts[1] == counts[2]


class TestRecoveryMetrics:
    def test_recovery_durations_recorded(self):
        cluster = build(protocol="basic", seed=47)
        steady_load(cluster, 10)
        cluster.run(until=6.0)
        cluster.nodes[1].crash()
        cluster.run(until=7.0)
        cluster.nodes[1].recover()
        cluster.run(until=40.0)
        # The window closes when the replay is done, not when the start
        # hooks return: catching up on the rounds missed takes time.
        assert cluster.abcasts[1].replay_complete
        (duration,) = cluster.nodes[1].recovery_durations
        assert duration > 0
