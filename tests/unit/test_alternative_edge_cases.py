"""Edge-case tests for the alternative protocol's interacting features.

These target the windows where two Section 5 mechanisms overlap: state
transfer racing replay, checkpoints racing state adoption, gossip-k
updates from state messages, and the watermark GC interacting with
recovering peers.
"""

from __future__ import annotations

from repro.core.alternative import AlternativeConfig
from repro.core.messages import StateMessage
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run
from repro.transport.network import NetworkConfig


def build(alt=None, seed=0, n=3, loss=0.03):
    cluster = Cluster(ClusterConfig(
        n=n, seed=seed, protocol="alternative",
        network=NetworkConfig(loss_rate=loss),
        alt=alt or AlternativeConfig()))
    cluster.start()
    return cluster


def pump(cluster, count, node=0, start=0.5, gap=0.2):
    for j in range(count):
        cluster.sim.schedule(start + gap * j, cluster.submit, node,
                             ("m", j))


def finish(cluster, until, limit=300.0):
    cluster.run(until=until)
    assert cluster.settle(within=limit - until)
    verify_run(cluster)


class TestStateTransferRaces:
    def test_state_arriving_during_replay(self):
        """A state message landing while the node is still replaying its
        own log must not corrupt the queue (it kills and re-forks the
        sequencer mid-replay)."""
        alt = AlternativeConfig(checkpoint_interval=None, delta=1,
                                state_resend_interval=0.1)
        cluster = build(alt=alt, seed=30)
        pump(cluster, 12, gap=0.15)
        cluster.run(until=4.0)
        cluster.nodes[2].crash()
        pump(cluster, 12, start=4.5, gap=0.15)
        cluster.run(until=8.0)
        # Recover: replay (no checkpoint => from round 0) races the
        # eagerly re-sent state messages.
        cluster.nodes[2].recover()
        finish(cluster, until=30.0)

    def test_duplicate_state_messages_are_idempotent(self):
        alt = AlternativeConfig(checkpoint_interval=2.0, delta=1,
                                state_resend_interval=0.05)
        cluster = build(alt=alt, seed=31)
        cluster.run(until=1.0)
        cluster.nodes[2].crash()
        pump(cluster, 20, start=1.5, gap=0.1)
        cluster.run(until=6.0)
        cluster.nodes[2].recover()
        finish(cluster, until=40.0)
        # Even with aggressive re-sends, the queue holds each message once.
        ab = cluster.abcasts[2]
        ids = [m.id for m in ab.deliver_sequence()]
        assert len(ids) == len(set(ids))

    def test_stale_state_message_only_bumps_gossip_k(self):
        """A state message for rounds we already passed must not roll
        the queue back (the else-branch of Figure 3's handler)."""
        cluster = build(seed=32)
        pump(cluster, 8)
        cluster.run(until=8.0)
        ab = cluster.abcasts[0]
        k_before = ab.k
        delivered_before = ab.delivered_count()
        # Forge a stale state message (an old, shorter queue).
        from repro.core.agreed import AgreedQueue
        stale = StateMessage(0, AgreedQueue().to_plain())
        ab._on_state(stale, sender=1)
        assert ab.k == k_before
        assert ab.delivered_count() == delivered_before

    def test_state_transfer_to_fresh_node_from_round_zero(self):
        """A node that never saw any traffic (down from the very start of
        the workload) adopts everything via state."""
        alt = AlternativeConfig(checkpoint_interval=2.0, delta=1)
        cluster = build(alt=alt, seed=33)
        cluster.run(until=0.2)
        cluster.nodes[2].crash()
        pump(cluster, 15, start=0.5, gap=0.15)
        cluster.run(until=6.0)
        cluster.nodes[2].recover()
        finish(cluster, until=40.0)
        assert cluster.abcasts[2].delivered_count() == 15


class TestCheckpointEdgeCases:
    def test_checkpoint_with_empty_history(self):
        """Checkpointing before anything was ordered is harmless."""
        alt = AlternativeConfig(checkpoint_interval=0.5)
        cluster = build(alt=alt, seed=34)
        cluster.run(until=3.0)  # several checkpoints, zero messages
        assert cluster.abcasts[0].checkpoints_taken >= 4
        pump(cluster, 5, start=3.5)
        finish(cluster, until=15.0)

    def test_explicit_checkpoint_call(self):
        alt = AlternativeConfig(checkpoint_interval=None, delta=None)
        cluster = build(alt=alt, seed=35)
        pump(cluster, 6)
        cluster.run(until=8.0)
        ab = cluster.abcasts[1]
        ab.take_checkpoint()
        assert ab.checkpoints_taken == 1
        assert ab.ckpt_k == ab.k
        cluster.nodes[1].crash()
        cluster.nodes[1].recover()
        cluster.run(until=20.0)
        assert cluster.abcasts[1].k >= ab.ckpt_k

    def test_crash_immediately_after_checkpoint(self):
        alt = AlternativeConfig(checkpoint_interval=1.0)
        cluster = build(alt=alt, seed=36)
        pump(cluster, 10)

        def crash_after_checkpoint():
            cluster.abcasts[2].take_checkpoint()
            cluster.nodes[2].crash()

        cluster.sim.schedule(4.0, crash_after_checkpoint)
        cluster.sim.schedule(6.0, cluster.recover, 2)
        finish(cluster, until=30.0)

    def test_watermark_is_min_over_peers(self):
        alt = AlternativeConfig(checkpoint_interval=1.0)
        cluster = build(alt=alt, seed=37)
        pump(cluster, 10)
        cluster.run(until=10.0)
        ab = cluster.abcasts[0]
        # Everyone is caught up and gossiping: watermark tracks the
        # slowest peer's checkpoint, which is > 0 by now.
        assert 0 < ab._gc_watermark() <= ab.ckpt_k


class TestGossipInteraction:
    def test_gossip_k_not_regressed_by_slow_peers(self):
        cluster = build(seed=38)
        pump(cluster, 6)
        cluster.run(until=8.0)
        ab = cluster.abcasts[0]
        before = ab.gossip_k
        from repro.core.messages import GossipMessage
        ab._on_gossip(GossipMessage(0, frozenset(), 0), sender=1)
        assert ab.gossip_k == before  # a behind peer cannot lower it

    def test_unordered_resubmission_is_idempotent(self):
        cluster = build(seed=39)
        cluster.run(until=0.5)
        ab = cluster.abcasts[0]
        message = cluster.submit(0, "once")
        # Gossip loops the same message back; it must not duplicate.
        from repro.core.messages import GossipMessage
        ab._on_gossip(GossipMessage(0, frozenset({message}), 0), sender=1)
        assert len(ab.unordered) == 1
        finish(cluster, until=15.0)
        # Delivered exactly once (the suffix may have been absorbed into
        # a checkpoint; the count covers both parts).
        assert ab.delivered_count() == 1
