"""Deep tests for the property verifier: it must catch what it claims to.

The verifier is the suite's oracle, so these tests inject synthetic
violations of each Atomic Broadcast property into the event archive of
otherwise-healthy runs and assert the right failure fires — guarding
against a verifier that silently passes everything.  The verifier reads
nothing but that archive, which the last class checks.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.chaos import ChaosEvent
from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.errors import VerificationError
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario, run_scenario
from repro.harness.verify import verify_run
from repro.membership.scenario import churn_scenario
from repro.workloads.generators import PoissonWorkload


def healthy_cluster(seed=70):
    result = run_scenario(Scenario(
        cluster=ClusterConfig(n=3, seed=seed, protocol="basic"),
        workload=PoissonWorkload(1.5, 6.0, seed=seed),
        duration=10.0))
    return result.cluster


def last_stream(cluster, node_id):
    """Indices into the delivery archive of a node's last stream."""
    stream = len(cluster.collector.streams[node_id])
    return [i for i, (node, at, _, _)
            in enumerate(cluster.collector.deliveries)
            if node == node_id and at == stream]


class TestInjectedViolations:
    def test_clean_run_passes(self):
        verify_run(healthy_cluster())

    def test_validity_spurious_message(self):
        cluster = healthy_cluster(seed=71)
        ghost = AppMessage(MessageId(7, 7, 7), "ghost")
        # Inject into the decision archive: it never was broadcast.
        highest = max(cluster.collector.decisions)
        cluster.collector.decisions[highest + 1] = frozenset({ghost})
        with pytest.raises(VerificationError, match="validity"):
            verify_run(cluster)

    def test_total_order_non_prefix_set(self):
        cluster = healthy_cluster(seed=72)
        # Drop a mid-stream delivery at one node (keep its later ones):
        # what it applied is no longer a canonical prefix.
        mine = last_stream(cluster, 0)
        assert len(mine) >= 3
        del cluster.collector.deliveries[mine[1]]
        with pytest.raises(VerificationError, match="total order"):
            verify_run(cluster, check_termination=False)

    def test_suffix_out_of_canonical_order(self):
        cluster = healthy_cluster(seed=73)
        deliveries = cluster.collector.deliveries
        mine = last_stream(cluster, 1)
        assert len(mine) >= 2
        i, j = mine[-2:]
        deliveries[i], deliveries[j] = deliveries[j], deliveries[i]
        with pytest.raises(VerificationError, match="total order"):
            verify_run(cluster, check_termination=False)

    def test_duplicate_in_suffix(self):
        cluster = healthy_cluster(seed=74)
        deliveries = cluster.collector.deliveries
        deliveries.append(deliveries[last_stream(cluster, 2)[0]])
        with pytest.raises(VerificationError, match="applied twice"):
            verify_run(cluster, check_termination=False)

    def test_incarnation_stream_duplicate(self):
        cluster = healthy_cluster(seed=75)
        deliveries = cluster.collector.deliveries
        node, inc, mid, when = deliveries[0]
        deliveries.append((node, inc, mid, when + 1.0))
        with pytest.raises(VerificationError, match="integrity"):
            verify_run(cluster, check_termination=False)

    def test_termination_missing_at_good_node(self):
        cluster = healthy_cluster(seed=76)
        # Node 1's Atomic Broadcast counts nothing delivered.
        cluster.collector.streams[1][-1][1] = 0
        with pytest.raises(VerificationError, match="termination"):
            verify_run(cluster)
        # Restricting good nodes excludes the gutted one: passes again.
        verify_run(cluster, good_nodes=[0, 2])

    def test_termination_accepted_broadcast_never_ordered(self):
        # An admitted broadcast from a sender that never crashed, which
        # no node ever ordered: admission control turned into silent
        # message loss.
        cluster = healthy_cluster(seed=78)
        assert not cluster.collector.crash_times.get(0)
        cluster.collector.note_broadcast(MessageId(0, 1, 999), "lost", 1.0)
        with pytest.raises(VerificationError, match="never ordered"):
            verify_run(cluster)

    def test_termination_good_node_still_joining(self):
        cluster = healthy_cluster(seed=79)
        # Node 2 reports joining; no join-complete follows.
        cluster.collector.record(cluster.sim.now, "state-transfer", 2,
                                 "joining", (), {})
        with pytest.raises(VerificationError, match="still joining"):
            verify_run(cluster)

    def test_decision_disagreement_between_nodes(self):
        cluster = healthy_cluster(seed=77)
        # One node reports another locked decision for instance 0.
        other = AppMessage(MessageId(8, 8, 8), "evil")
        cluster.collector.record(cluster.sim.now, "decision", 0, "locked",
                                 (0, frozenset({other})), {})
        with pytest.raises(VerificationError, match="uniform agreement"):
            verify_run(cluster, check_termination=False)


def restored_cluster(seed=79):
    """An alternative-protocol run in which node 2 crashed, recovered
    from its checkpoint chain and replayed the rest."""
    from repro.core.alternative import AlternativeConfig
    from repro.harness.cluster import Cluster
    cluster = Cluster(ClusterConfig(
        n=3, seed=seed, protocol="alternative",
        alt=AlternativeConfig(checkpoint_interval=1.0)))
    cluster.start()
    for j in range(30):
        cluster.sim.schedule(0.5 + 0.2 * j, cluster.submit, j % 2, f"m{j}")
    cluster.run(until=5.2)
    cluster.nodes[2].crash()
    cluster.run(until=6.0)
    cluster.nodes[2].recover()
    cluster.run(until=12.0)
    assert cluster.settle(within=88.0)
    assert cluster.rsms[2].stream >= 3      # a restore did happen
    return cluster


class TestApplicationState:
    """The tracker counts a message delivered; only the application can
    say it was applied."""

    def test_restored_run_passes(self):
        verify_run(restored_cluster())

    def test_message_marked_delivered_but_never_applied(self):
        cluster = restored_cluster()
        # The Atomic Broadcast layer counts three messages delivered on
        # node 2's last stream that its application never applied.
        for index in reversed(last_stream(cluster, 2)[-3:]):
            del cluster.collector.deliveries[index]
        with pytest.raises(VerificationError,
                           match="application state.*3 never applied"):
            verify_run(cluster)

    def test_message_applied_twice(self):
        cluster = restored_cluster()
        deliveries = cluster.collector.deliveries
        index = last_stream(cluster, 2)[4]
        deliveries.insert(index, deliveries[index])
        with pytest.raises(VerificationError, match="applied twice"):
            verify_run(cluster)

    def test_truncated_application_at_a_good_node(self):
        cluster = restored_cluster()
        for index in reversed(last_stream(cluster, 2)[-2:]):
            del cluster.collector.deliveries[index]
        with pytest.raises(VerificationError, match="application state"):
            verify_run(cluster)
        # Still a canonical prefix: acceptable where termination is not
        # asserted for the node.
        verify_run(cluster, good_nodes=[0, 1])

    def test_node_recovered_in_the_last_instant_holds_nothing_yet(self):
        cluster = restored_cluster()
        cluster.nodes[1].crash()
        cluster.nodes[1].recover()      # restored, not yet announced
        assert cluster.app(1).ids() == []
        verify_run(cluster)


class TestReportContents:
    def test_report_counts_match_run(self):
        cluster = healthy_cluster(seed=78)
        report = verify_run(cluster)
        assert len(report.canonical) == \
            len(cluster.collector.first_delivery)
        assert report.rounds == max(ab.k for ab in
                                    cluster.abcasts.values())
        assert set(report.good_nodes) == {0, 1, 2}
        assert report.undeliverable == set()


def sequencer_cluster():
    result = run_scenario(Scenario(
        cluster=ClusterConfig(n=3, seed=5, protocol="sequencer"),
        workload=PoissonWorkload(2.0, 6.0, seed=5), duration=10.0))
    return result.cluster


def live_kill_restart_cluster():
    """A live run with one kill and restart, closed (every node down)."""
    timeline = [ChaosEvent(0.05 + 0.05 * i, "submit", node=0,
                           payload=f"live-{i}") for i in range(20)]
    timeline += [ChaosEvent(0.5, "crash", node=2),
                 ChaosEvent(1.0, "recover", node=2)]
    timeline.sort(key=lambda event: event.time)
    result = run_scenario(Scenario(
        ClusterConfig(n=3, seed=11, protocol="basic", gossip_interval=0.1),
        runtime="live", timeline=timeline, duration=1.5,
        settle_limit=30.0))
    assert result.cluster.nodes[2].recovery_count == 1
    assert not any(node.up for node in result.cluster.nodes.values())
    return result.cluster, result.report


class TestJudgedFromTheStreamAlone:
    """The collector is all the verifier reads: a run judged from its
    archive alone gets the report the hosting cluster gets."""

    @staticmethod
    def same_report(cluster):
        report = verify_run(cluster)
        alone = verify_run(SimpleNamespace(collector=cluster.collector))
        assert (alone.canonical, alone.rounds, alone.good_nodes,
                alone.undeliverable) == \
            (report.canonical, report.rounds, report.good_nodes,
             report.undeliverable)
        return alone

    @pytest.mark.parametrize("build", [
        healthy_cluster, restored_cluster,
        lambda: run_scenario(churn_scenario(seed=0)).cluster,
        sequencer_cluster], ids=["basic", "restored", "churn", "sequencer"])
    def test_sim_runs(self, build):
        report = self.same_report(build())
        assert report.canonical and report.good_nodes

    def test_live_kill_and_restart_after_close(self):
        cluster, in_run = live_kill_restart_cluster()
        report = self.same_report(cluster)
        assert report.canonical == in_run.canonical
        assert len(report.canonical) == 20
