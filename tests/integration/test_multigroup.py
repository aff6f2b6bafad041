"""Integration tests for multi-group total order multicast (Section 6.4)."""

from __future__ import annotations

import pytest

from repro.errors import BroadcastError, SimulationError
from repro.multigroup import MultiGroupCluster
from repro.transport.network import NetworkConfig


def build(groups, seed=0, loss=0.05):
    cluster = MultiGroupCluster(groups, seed=seed,
                                network=NetworkConfig(loss_rate=loss))
    cluster.start()
    return cluster


def payloads(cluster, group, node_id):
    return [payload for _, payload in cluster.sequences(group)[node_id]]


class TestSingleGroup:
    def test_degenerates_to_atomic_broadcast(self):
        cluster = build({"g": [0, 1, 2]}, seed=1)
        for j in range(6):
            cluster.sim.schedule(0.5 + 0.2 * j, cluster.multicast,
                                 j % 3, f"m{j}", ["g"])
        cluster.run(until=25.0)
        cluster.check_group_agreement("g")
        assert len(payloads(cluster, "g", 0)) == 6
        assert payloads(cluster, "g", 0) == payloads(cluster, "g", 1) \
            == payloads(cluster, "g", 2)


class TestOverlappingGroups:
    def test_cross_group_messages_ordered_consistently(self):
        cluster = build({"g1": [0, 1, 2], "g2": [2, 3, 4]}, seed=2)
        for j in range(5):
            cluster.sim.schedule(0.5 + 0.3 * j, cluster.multicast,
                                 0, f"a{j}", ["g1"])
            cluster.sim.schedule(0.6 + 0.3 * j, cluster.multicast,
                                 3, f"b{j}", ["g2"])
            cluster.sim.schedule(0.7 + 0.3 * j, cluster.multicast,
                                 2, f"x{j}", ["g1", "g2"])
        cluster.run(until=60.0)
        cluster.check_group_agreement("g1")
        cluster.check_group_agreement("g2")
        cluster.check_pairwise_total_order()
        # Every group delivers all of its messages.
        assert len(payloads(cluster, "g1", 0)) == 10
        assert len(payloads(cluster, "g2", 4)) == 10
        # Cross-group messages keep their relative order in both groups.
        g1_cross = [p for p in payloads(cluster, "g1", 0)
                    if p.startswith("x")]
        g2_cross = [p for p in payloads(cluster, "g2", 3)
                    if p.startswith("x")]
        assert g1_cross == g2_cross

    def test_three_groups_chain(self):
        cluster = build({"a": [0, 1, 2], "b": [2, 3, 4], "c": [4, 5, 6]},
                        seed=3)
        cluster.sim.schedule(0.5, cluster.multicast, 2, "ab", ["a", "b"])
        cluster.sim.schedule(0.7, cluster.multicast, 4, "bc", ["b", "c"])
        cluster.sim.schedule(0.9, cluster.multicast, 0, "a-only", ["a"])
        cluster.run(until=60.0)
        for group in ("a", "b", "c"):
            cluster.check_group_agreement(group)
        cluster.check_pairwise_total_order()
        assert "ab" in payloads(cluster, "a", 0)
        assert "ab" in payloads(cluster, "b", 3)
        assert "bc" in payloads(cluster, "c", 5)

    def test_disjoint_groups_progress_independently(self):
        cluster = build({"left": [0, 1, 2], "right": [3, 4, 5]}, seed=4)
        for j in range(4):
            cluster.sim.schedule(0.5 + 0.2 * j, cluster.multicast,
                                 0, f"l{j}", ["left"])
            cluster.sim.schedule(0.5 + 0.2 * j, cluster.multicast,
                                 3, f"r{j}", ["right"])
        cluster.run(until=30.0)
        assert len(payloads(cluster, "left", 1)) == 4
        assert len(payloads(cluster, "right", 4)) == 4


class TestCrashRecovery:
    def test_bridge_node_crash_and_recovery(self):
        cluster = build({"g1": [0, 1, 2], "g2": [2, 3, 4]}, seed=5)
        for j in range(3):
            cluster.sim.schedule(0.5 + 0.3 * j, cluster.multicast,
                                 2, f"x{j}", ["g1", "g2"])
        cluster.sim.schedule(3.0, cluster.nodes[2].crash)
        cluster.sim.schedule(3.5, cluster.multicast, 0, "during", ["g1"])
        cluster.sim.schedule(6.0, cluster.nodes[2].recover)
        cluster.run(until=80.0)
        cluster.check_group_agreement("g1")
        cluster.check_group_agreement("g2")
        cluster.check_pairwise_total_order()
        # The recovered bridge caught up in both of its groups.
        assert set(payloads(cluster, "g1", 2)) == \
            set(payloads(cluster, "g1", 0))
        assert set(payloads(cluster, "g2", 2)) == \
            set(payloads(cluster, "g2", 3))

    def test_sender_crash_after_partial_submit_is_repaired(self):
        """The relay path: if the sender dies right after submitting,
        whichever group got the message re-injects it into the others.

        Swept over seeds: with the only bridge member down, g1 can learn
        g2's proposal only from g2 members that may already have
        finalised (and stopped announcing) — a wedge that one lucky seed
        used to hide."""
        for seed in range(40):
            cluster = build({"g1": [0, 1, 2], "g2": [2, 3, 4]}, seed=seed,
                            loss=0.02)
            cluster.run(until=1.0)
            # Bypass the public API to submit to only ONE group's AB,
            # then crash the sender — simulating a crash between the two
            # submits.
            mid = (2, cluster.group_abs[2]["g1"].incarnation, 999)
            cluster.group_abs[2]["g1"].submit(
                ("mgp", mid, ("g1", "g2"), "half-sent"))
            cluster.run(until=1.6)
            cluster.nodes[2].crash()
            cluster.run(until=60.0)
            # g1 members relayed the body into g2; both groups delivered.
            assert "half-sent" in payloads(cluster, "g1", 0), seed
            assert "half-sent" in payloads(cluster, "g2", 3), seed
            cluster.check_pairwise_total_order()

    def test_member_crash_in_one_group_does_not_block_other(self):
        cluster = build({"g1": [0, 1, 2], "g2": [2, 3, 4]}, seed=7)
        cluster.sim.schedule(1.0, cluster.nodes[0].crash)  # g1-only member
        for j in range(4):
            cluster.sim.schedule(1.5 + 0.2 * j, cluster.multicast,
                                 3, f"r{j}", ["g2"])
        cluster.run(until=30.0)
        assert len(payloads(cluster, "g2", 3)) == 4


class TestValidation:
    def test_non_member_multicast_rejected(self):
        cluster = build({"g1": [0, 1, 2], "g2": [2, 3, 4]}, seed=8)
        with pytest.raises(BroadcastError):
            cluster.layers[0].multicast("nope", ["g2"])

    def test_empty_groups_rejected(self):
        cluster = build({"g1": [0, 1, 2]}, seed=9)
        with pytest.raises(BroadcastError):
            cluster.layers[0].multicast("nope", [])

    def test_sparse_node_ids_rejected(self):
        with pytest.raises(SimulationError):
            MultiGroupCluster({"g": [0, 5]})

    def test_no_groups_rejected(self):
        with pytest.raises(SimulationError):
            MultiGroupCluster({})


class TestScopedIsolation:
    def test_group_storage_is_namespaced(self):
        cluster = build({"g1": [0, 1, 2], "g2": [2, 3, 4]}, seed=10)
        cluster.sim.schedule(0.5, cluster.multicast, 2, "x", ["g1", "g2"])
        cluster.run(until=20.0)
        keys = list(cluster.nodes[2].storage.keys())
        assert any(key.startswith("paxos@g1/") for key in keys)
        assert any(key.startswith("paxos@g2/") for key in keys)
        assert any(key.startswith("ab@g1/") for key in keys)

    def test_determinism(self):
        def run():
            cluster = build({"g1": [0, 1, 2], "g2": [2, 3, 4]}, seed=11)
            for j in range(4):
                cluster.sim.schedule(0.5 + 0.3 * j, cluster.multicast,
                                     2, f"x{j}", ["g1", "g2"])
            cluster.run(until=40.0)
            return (payloads(cluster, "g1", 0),
                    payloads(cluster, "g2", 4))

        assert run() == run()
