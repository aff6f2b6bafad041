"""Unit tests for the alternative protocol (Figures 3–4, Section 5)."""

from __future__ import annotations

import pytest

from repro.apps.kvstore import KeyValueStore
from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import Cluster, ClusterConfig
from repro.transport.network import NetworkConfig


def build(n=3, seed=0, loss=0.0, alt=None, app_factory=None, **kwargs):
    extra = {"app_factory": app_factory} if app_factory else {}
    cluster = Cluster(ClusterConfig(
        n=n, seed=seed, protocol="alternative",
        network=NetworkConfig(loss_rate=loss),
        alt=alt or AlternativeConfig(), **extra, **kwargs))
    cluster.start()
    return cluster


def sequences(cluster):
    return {i: [m.payload for m in ab.deliver_sequence()]
            for i, ab in cluster.abcasts.items()}


def applied(cluster):
    """What each replica's application holds: every delivered payload,
    in order.  ``sequences`` is only each node's explicit tail since its
    own last fold, which nodes with different histories (an outage, a
    state transfer) do not share."""
    return {i: cluster.app(i).payloads() for i in cluster.node_ids()}


def pump(cluster, count, node=0, start=0.5, gap=0.25, prefix="m"):
    for j in range(count):
        cluster.sim.schedule(start + gap * j, cluster.submit, node,
                             f"{prefix}{j}")


class TestConfigValidation:
    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            AlternativeConfig(delta=0)

    def test_bad_checkpoint_interval_rejected(self):
        with pytest.raises(ValueError):
            AlternativeConfig(checkpoint_interval=0)

    def test_features_can_be_disabled(self):
        config = AlternativeConfig(checkpoint_interval=None, delta=None,
                                   log_unordered=False)
        assert config.checkpoint_interval is None
        assert config.delta is None


class TestCheckpointing:
    def test_checkpoints_taken_periodically(self):
        cluster = build(alt=AlternativeConfig(checkpoint_interval=1.0))
        pump(cluster, 6)
        cluster.run(until=10.0)
        assert all(ab.checkpoints_taken >= 5
                   for ab in cluster.abcasts.values())

    def test_recovery_resumes_from_checkpoint_not_round_zero(self):
        cluster = build(seed=1, alt=AlternativeConfig(
            checkpoint_interval=1.0))
        pump(cluster, 8)
        cluster.run(until=10.0)
        rounds_before = cluster.abcasts[1].k
        assert rounds_before > 0
        cluster.nodes[1].crash()
        cluster.run(until=11.0)
        cluster.nodes[1].recover()
        cluster.run(until=30.0)
        ab = cluster.abcasts[1]
        # Replay touched at most the rounds after the checkpoint.
        assert ab.replayed_rounds < rounds_before
        assert sequences(cluster)[1] == sequences(cluster)[0]

    def test_app_checkpoint_compacts_agreed_queue(self):
        cluster = build(seed=2, app_factory=KeyValueStore,
                        alt=AlternativeConfig(checkpoint_interval=1.0))
        for j in range(10):
            cluster.sim.schedule(0.5 + 0.2 * j, cluster.submit, 0,
                                 ("put", f"k{j}", j))
        cluster.run(until=12.0)
        ab = cluster.abcasts[0]
        assert ab.agreed.checkpointed_count > 0
        assert len(ab.agreed) == 10
        # The replica state survives compaction.
        assert cluster.app(0).get("k3") == 3

    def test_restored_app_state_after_recovery(self):
        cluster = build(seed=3, app_factory=KeyValueStore,
                        alt=AlternativeConfig(checkpoint_interval=1.0))
        for j in range(6):
            cluster.sim.schedule(0.5 + 0.2 * j, cluster.submit, 0,
                                 ("put", f"k{j}", j))
        cluster.run(until=10.0)
        cluster.nodes[2].crash()
        cluster.run(until=11.0)
        cluster.nodes[2].recover()
        cluster.run(until=30.0)
        for j in range(6):
            assert cluster.app(2).get(f"k{j}") == j

    def test_watermark_gc_discards_consensus_logs(self):
        cluster = build(seed=4, alt=AlternativeConfig(
            checkpoint_interval=1.0))
        pump(cluster, 10, gap=0.2)
        cluster.run(until=20.0)
        ab = cluster.abcasts[0]
        assert ab.instances_discarded > 0
        # Instance 0's proposal is gone from the log of node 0.
        assert cluster.consensuses[0].proposal_of(0) is None

    def test_gc_never_passes_slowest_peer_checkpoint(self):
        """Decisions a lagging peer may still need are retained."""
        cluster = build(seed=5, alt=AlternativeConfig(
            checkpoint_interval=1.0, delta=None))
        cluster.run(until=1.0)
        cluster.nodes[2].crash()  # node 2's checkpoint freezes at round 0
        pump(cluster, 8, start=1.5)
        cluster.run(until=10.0)
        # Nodes 0/1 checkpointed well past round 0 but must not GC:
        # node 2's last reported checkpoint round is 0.
        assert cluster.consensuses[0].decided_value(0) is not None
        cluster.nodes[2].recover()
        cluster.run(until=60.0)
        assert applied(cluster)[2] == applied(cluster)[0]


class TestStateTransfer:
    def test_long_outage_triggers_state_transfer(self):
        cluster = build(seed=6, alt=AlternativeConfig(
            checkpoint_interval=2.0, delta=2))
        cluster.run(until=1.0)
        cluster.nodes[2].crash()
        pump(cluster, 25, start=1.5, gap=0.15)
        cluster.run(until=8.0)
        cluster.nodes[2].recover()
        cluster.run(until=40.0)
        total_sent = sum(ab.state_transfers_sent
                         for ab in cluster.abcasts.values())
        assert total_sent > 0
        assert cluster.abcasts[2].state_transfers_adopted > 0
        assert cluster.abcasts[2].rounds_skipped > 0
        assert applied(cluster)[2] == applied(cluster)[0]

    def test_disabled_delta_never_sends_state(self):
        cluster = build(seed=7, alt=AlternativeConfig(
            checkpoint_interval=2.0, delta=None))
        cluster.run(until=1.0)
        cluster.nodes[2].crash()
        pump(cluster, 15, start=1.5, gap=0.15)
        cluster.run(until=8.0)
        cluster.nodes[2].recover()
        cluster.run(until=60.0)
        assert all(ab.state_transfers_sent == 0
                   for ab in cluster.abcasts.values())
        # Catch-up still happens, via consensus replay.
        assert applied(cluster)[2] == applied(cluster)[0]

    def test_small_lag_uses_gossip_not_state(self):
        """De-synchronisation below Δ is handled by gossip-k (line d/else)."""
        cluster = build(seed=8, alt=AlternativeConfig(
            checkpoint_interval=2.0, delta=50))
        cluster.run(until=1.0)
        cluster.nodes[2].crash()
        pump(cluster, 6, start=1.5)
        cluster.run(until=6.0)
        cluster.nodes[2].recover()
        cluster.run(until=40.0)
        assert cluster.abcasts[2].state_transfers_adopted == 0
        assert applied(cluster)[2] == applied(cluster)[0]

    def test_state_message_throttled_per_peer(self):
        cluster = build(seed=9, alt=AlternativeConfig(
            checkpoint_interval=2.0, delta=1, state_resend_interval=5.0))
        cluster.run(until=1.0)
        cluster.nodes[2].crash()
        pump(cluster, 20, start=1.5, gap=0.1)
        cluster.run(until=6.0)
        cluster.nodes[2].recover()
        cluster.run(until=9.0)
        sent = sum(ab.state_transfers_sent for ab in cluster.abcasts.values())
        # With a 5-unit throttle and ~3 units of catch-up window, each
        # up peer sends at most one state message.
        assert sent <= 2


class TestLoggedUnordered:
    def test_broadcast_returns_before_ordering(self):
        cluster = build(seed=10, alt=AlternativeConfig(log_unordered=True))
        returned = []

        def client():
            yield 0.5
            message = yield from cluster.abcasts[0].broadcast("early")
            returned.append(cluster.sim.now)
            assert message not in cluster.abcasts[0].agreed

        cluster.nodes[0].spawn(client(), "client")
        cluster.run(until=10.0)
        assert returned and returned[0] == pytest.approx(0.5)

    def test_unordered_messages_survive_crash(self):
        """Section 5.4: a logged-but-unordered message is not lost."""
        cluster = build(seed=11, alt=AlternativeConfig(
            log_unordered=True, checkpoint_interval=None))
        cluster.run(until=0.3)
        # Submit and crash immediately: the message never reached gossip.
        message = cluster.abcasts[0].submit("survivor")
        cluster.nodes[0].crash()
        cluster.run(until=2.0)
        cluster.nodes[0].recover()
        cluster.run(until=30.0)
        assert "survivor" in sequences(cluster)[0]
        assert sequences(cluster)[0] == sequences(cluster)[1]

    def test_without_logging_same_crash_loses_message(self):
        """Contrast case: the basic behaviour may drop it (allowed by the
        paper since A-broadcast never returned)."""
        cluster = build(seed=11, alt=AlternativeConfig(
            log_unordered=False, checkpoint_interval=None))
        cluster.run(until=0.3)
        cluster.abcasts[0].submit("doomed")
        cluster.nodes[0].crash()
        cluster.run(until=2.0)
        cluster.nodes[0].recover()
        cluster.run(until=30.0)
        assert "doomed" not in sequences(cluster)[0]

    def test_recovery_does_not_regrow_unordered_log(self):
        """Regression: restoring the Unordered set must not re-append it.

        The incremental-mode override used to log every restored message
        again, doubling the durable list per crash (found by REC003)."""
        cluster = build(seed=13, alt=AlternativeConfig(
            log_unordered=True, incremental=True,
            checkpoint_interval=None))
        cluster.run(until=0.3)
        cluster.abcasts[0].submit("survivor")
        cluster.run(until=1.0)
        storage = cluster.nodes[0].storage
        key = cluster.abcasts[0].UNORDERED_KEY
        before = len(storage.retrieve_list(key))
        assert before == 1
        cluster.nodes[0].crash()
        cluster.run(until=2.0)
        cluster.nodes[0].recover()
        cluster.run(until=3.0)
        cluster.nodes[0].crash()
        cluster.run(until=4.0)
        cluster.nodes[0].recover()
        cluster.run(until=5.0)
        assert len(storage.retrieve_list(key)) == before
        cluster.run(until=30.0)
        assert "survivor" in sequences(cluster)[0]
        assert sequences(cluster)[0] == sequences(cluster)[1]

    def test_incremental_logging_writes_less(self):
        def bytes_logged(incremental):
            cluster = build(seed=12, alt=AlternativeConfig(
                log_unordered=True, incremental=incremental,
                checkpoint_interval=None))
            pump(cluster, 20, gap=0.1)
            cluster.run(until=15.0)
            return sum(
                node.storage.metrics.bytes_by_prefix.get("ab", 0)
                for node in cluster.nodes.values())

        assert bytes_logged(True) < bytes_logged(False)

    def test_a_checkpoint_tick_rewrites_the_unordered_log_in_one_write(self):
        # The paper's cost unit is the log operation: the compacted
        # Unordered set is one record, whatever it holds.
        cluster = build(seed=13, alt=AlternativeConfig(
            log_unordered=True, checkpoint_interval=None))
        cluster.run(until=1.0)
        ab, metrics = cluster.abcasts[0], cluster.nodes[0].storage.metrics
        ab.take_checkpoint()
        for index in range(3):
            cluster.submit(0, f"held-{index}")
        assert len(ab.unordered) == 3
        before = metrics.log_ops
        ab.take_checkpoint()
        assert metrics.log_ops == before + 1
        assert len(cluster.nodes[0].storage.retrieve_list(
            ("ab", "unordered"))) == 3

    def test_checkpoint_rewrites_unordered_log(self):
        cluster = build(seed=13, alt=AlternativeConfig(
            log_unordered=True, incremental=True, checkpoint_interval=1.0))
        pump(cluster, 10, gap=0.2)
        cluster.run(until=15.0)
        # After checkpoints, ordered messages were dropped from the log.
        stored = cluster.nodes[0].storage.retrieve_list(
            ("ab", "unordered"))
        assert stored == []
