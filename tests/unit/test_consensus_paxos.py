"""Unit tests for the crash-recovery Paxos consensus substrate."""

from __future__ import annotations

import pytest

from repro.errors import ConsensusError, ProposalMismatch
from repro.transport.network import NetworkConfig


def propose(cluster, node_id, k, value):
    cluster.consensuses[node_id].propose(k, frozenset({value}))


def decided(cluster, node_id, k):
    return cluster.consensuses[node_id].decided_value(k)


def wait_all_decided(cluster, k, limit):
    cluster.run(until=limit)
    return [decided(cluster, i, k) for i in cluster.consensuses]


class TestInterfaceContract:
    def test_none_proposal_rejected(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        with pytest.raises(ConsensusError):
            cluster.consensuses[0].propose(0, None)

    def test_negative_instance_rejected(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        with pytest.raises(ConsensusError):
            cluster.consensuses[0].propose(-1, frozenset())

    def test_propose_logs_first(self, mini_cluster):
        """Section 4.2: the proposal log is the first consensus operation."""
        cluster = mini_cluster(n=3).start()
        before = cluster.nodes[0].storage.metrics.ops_by_prefix.get(
            "consensus", 0)
        propose(cluster, 0, 0, "v")
        after = cluster.nodes[0].storage.metrics.ops_by_prefix["consensus"]
        assert after == before + 1
        assert cluster.consensuses[0].proposal_of(0) == frozenset({"v"})

    def test_repropose_same_value_is_idempotent(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        propose(cluster, 0, 0, "v")
        ops = cluster.nodes[0].storage.metrics.log_ops
        propose(cluster, 0, 0, "v")  # idempotent: no second log
        assert cluster.nodes[0].storage.metrics.ops_by_prefix[
            "consensus"] == 1
        assert cluster.nodes[0].storage.metrics.log_ops >= ops

    def test_property_p4_different_value_rejected(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        propose(cluster, 0, 0, "v")
        with pytest.raises(ProposalMismatch):
            propose(cluster, 0, 0, "other")

    def test_logged_instances_enumerates_proposals(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        for k in range(3):
            propose(cluster, 0, k, f"v{k}")
        logged = cluster.consensuses[0].logged_instances()
        assert set(logged) == {0, 1, 2}
        assert logged[1] == frozenset({"v1"})


class TestAgreement:
    def test_all_nodes_decide_same_value(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        for i in range(3):
            propose(cluster, i, 0, f"v{i}")
        values = wait_all_decided(cluster, 0, limit=30.0)
        assert values[0] is not None
        assert values[0] == values[1] == values[2]

    def test_validity_decision_was_proposed(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        for i in range(3):
            propose(cluster, i, 0, f"v{i}")
        values = wait_all_decided(cluster, 0, limit=30.0)
        assert values[0] in [frozenset({f"v{i}"}) for i in range(3)]

    def test_multiple_instances_independent(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        for k in range(4):
            for i in range(3):
                propose(cluster, i, k, f"k{k}-v{i}")
        cluster.run(until=60.0)
        for k in range(4):
            values = [decided(cluster, i, k) for i in range(3)]
            assert values[0] is not None
            assert values.count(values[0]) == 3

    def test_decides_under_message_loss(self, mini_cluster):
        cluster = mini_cluster(
            n=3, network_config=NetworkConfig(loss_rate=0.2),
            seed=7).start()
        for i in range(3):
            propose(cluster, i, 0, f"v{i}")
        values = wait_all_decided(cluster, 0, limit=60.0)
        assert values[0] is not None and values.count(values[0]) == 3

    def test_decides_with_minority_down(self, mini_cluster):
        cluster = mini_cluster(n=5).start()
        cluster.run(until=1.0)
        cluster.nodes[3].crash()
        cluster.nodes[4].crash()
        for i in range(3):
            propose(cluster, i, 0, f"v{i}")
        cluster.run(until=40.0)
        assert decided(cluster, 0, 0) is not None

    def test_blocks_without_majority(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        cluster.run(until=1.0)
        cluster.nodes[1].crash()
        cluster.nodes[2].crash()
        propose(cluster, 0, 0, "v")
        cluster.run(until=30.0)
        assert decided(cluster, 0, 0) is None  # safety: no lone decision


class TestCrashRecovery:
    def test_decision_locked_across_recovery(self, mini_cluster):
        """Property P5: re-executions return the locked decision."""
        cluster = mini_cluster(n=3).start()
        for i in range(3):
            propose(cluster, i, 0, f"v{i}")
        first = wait_all_decided(cluster, 0, limit=30.0)[0]
        cluster.nodes[2].crash()
        cluster.run(until=35.0)
        cluster.nodes[2].recover()
        # Re-invoking propose with the logged value must converge to the
        # same locked decision.
        logged = cluster.consensuses[2].proposal_of(0)
        cluster.consensuses[2].propose(0, logged)
        cluster.run(until=60.0)
        assert decided(cluster, 2, 0) == first

    def test_proposal_survives_crash(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        propose(cluster, 0, 5, "durable")
        cluster.nodes[0].crash()
        cluster.nodes[0].recover()
        assert cluster.consensuses[0].proposal_of(5) == \
            frozenset({"durable"})

    def test_leader_crash_mid_instance_still_decides(self, mini_cluster):
        cluster = mini_cluster(n=3, seed=3).start()
        cluster.run(until=2.0)
        for i in range(3):
            propose(cluster, i, 0, f"v{i}")
        cluster.run(until=2.2)
        cluster.nodes[0].crash()   # Ω leader dies mid-attempt
        cluster.run(until=40.0)
        assert decided(cluster, 1, 0) is not None
        assert decided(cluster, 1, 0) == decided(cluster, 2, 0)

    def test_acceptor_state_durability_prevents_divergence(self,
                                                           mini_cluster):
        """A recovered acceptor must honour pre-crash promises/accepts."""
        cluster = mini_cluster(n=3, seed=11).start()
        for i in range(3):
            propose(cluster, i, 0, f"v{i}")
        cluster.run(until=30.0)
        first = decided(cluster, 0, 0)
        # Crash and recover everyone; re-propose; decision cannot change.
        for i in range(3):
            cluster.nodes[i].crash()
        cluster.run(until=32.0)
        for i in range(3):
            cluster.nodes[i].recover()
            logged = cluster.consensuses[i].proposal_of(0)
            cluster.consensuses[i].propose(0, logged)
        cluster.run(until=70.0)
        for i in range(3):
            assert decided(cluster, i, 0) == first

    def test_gc_discards_old_instances(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        for k in range(3):
            for i in range(3):
                propose(cluster, i, k, f"k{k}")
        cluster.run(until=40.0)
        consensus = cluster.consensuses[0]
        storage = cluster.nodes[0].storage
        assert any(key.startswith("paxos/0/") for key in storage.keys())
        consensus.discard_instances_below(2)
        assert consensus.proposal_of(0) is None
        assert consensus.proposal_of(1) is None
        assert consensus.proposal_of(2) is not None
        assert not any(key.startswith("paxos/0/") for key in storage.keys())
        assert not any(key.startswith("paxos/1/") for key in storage.keys())

    def test_gc_drops_decision_signal_cache(self, mini_cluster):
        # The volatile decision-signal cache must follow the instance
        # floor like the proposal/decision maps do, or it grows with the
        # full instance history.
        cluster = mini_cluster(n=3).start()
        consensus = cluster.consensuses[0]
        for k in range(4):
            consensus.decision_signal(k)
        assert set(consensus._decided_signal) == {0, 1, 2, 3}
        consensus.discard_instances_below(2)
        assert set(consensus._decided_signal) == {2, 3}

    def test_wait_decided_generator(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        results = []

        def waiter():
            value = yield from cluster.consensuses[0].wait_decided(0)
            results.append(value)

        cluster.nodes[0].spawn(waiter(), "waiter")
        for i in range(3):
            propose(cluster, i, 0, "w")
        cluster.run(until=30.0)
        assert results == [frozenset({"w"})]
