"""Ablation: the predetermined deterministic rule is swappable.

Section 4.2 only requires that the rule moving a decided batch to the
Agreed tail be deterministic and cluster-uniform.  These tests (a) run
the protocol under an alternative rule and show everything still holds,
and (b) deliberately *mix* rules across nodes and show the verifier
catches the resulting divergence — evidence the uniformity requirement
is real, not ceremonial.
"""

from __future__ import annotations

import pytest

from repro.core.agreed import (AgreedQueue, deterministic_order,
                               sender_round_robin_order)
from repro.core.basic import BasicAtomicBroadcast
from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.errors import VerificationError
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run
from repro.transport.network import NetworkConfig


def msg(sender, seq):
    return AppMessage(MessageId(sender, 1, seq), ("p", sender, seq))


class TestRuleSemantics:
    def test_rules_differ_on_mixed_batches(self):
        batch = [msg(0, 2), msg(1, 1), msg(2, 1)]
        by_id = [m.id for m in deterministic_order(batch)]
        round_robin = [m.id for m in sender_round_robin_order(batch)]
        assert by_id != round_robin
        assert by_id[0] == (0, 1, 2)          # sender-major
        assert round_robin[0] in ((1, 1, 1), (2, 1, 1))  # seq-major

    def test_queue_honours_custom_rule(self):
        queue = AgreedQueue(sender_round_robin_order)
        appended = queue.append_batch({msg(0, 2), msg(1, 1)})
        assert [m.id for m in appended] == \
            [m.id for m in sender_round_robin_order({msg(0, 2),
                                                     msg(1, 1)})]


def build(rule_for_node, seed=0):
    """A cluster whose per-node batch rule is chosen by the callback."""
    cluster = Cluster(ClusterConfig(
        n=3, seed=seed, protocol="basic",
        network=NetworkConfig(loss_rate=0.02)))
    for node_id, abcast in cluster.abcasts.items():
        abcast.order_rule = rule_for_node(node_id)
    cluster.start()
    return cluster


def pump(cluster, count=9):
    for j in range(count):
        cluster.sim.schedule(0.5 + 0.1 * j, cluster.submit, j % 3,
                             ("m", j))


class TestUniformAlternativeRule:
    def test_round_robin_rule_everywhere_verifies(self):
        cluster = build(lambda node_id: sender_round_robin_order,
                        seed=100)
        pump(cluster)
        cluster.run(until=15.0)
        assert cluster.settle(within=105.0)
        # The verifier's canonical order assumes the default rule, so
        # compare the nodes against each other directly.
        sequences = [[m.id for m in ab.deliver_sequence()]
                     for ab in cluster.abcasts.values()]
        assert sequences[0] == sequences[1] == sequences[2]
        assert len(sequences[0]) == 9

    def test_mixed_rules_diverge_and_are_caught(self):
        """The uniformity requirement has teeth: one deviant node breaks
        Total Order, and the verifier says so."""
        cluster = build(
            lambda node_id: (sender_round_robin_order if node_id == 2
                             else deterministic_order), seed=101)
        # Simultaneous submissions from several senders force multi-
        # message batches, where the rules disagree.
        for j in range(9):
            for sender in range(3):
                cluster.sim.schedule(0.5 + 0.05 * j, cluster.submit,
                                     sender, ("m", sender, j))
        cluster.run(until=20.0)
        cluster.settle(within=100.0)
        sequences = [[m.id for m in ab.deliver_sequence()]
                     for ab in cluster.abcasts.values()]
        assert sequences[0] == sequences[1]
        assert sequences[2] != sequences[0]  # the deviant diverged
        with pytest.raises(VerificationError):
            verify_run(cluster, check_termination=False)
