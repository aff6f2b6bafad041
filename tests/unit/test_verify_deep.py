"""Deep tests for the property verifier: it must catch what it claims to.

The verifier is the suite's oracle, so these tests inject synthetic
violations of each Atomic Broadcast property into otherwise-healthy runs
and assert the right failure fires — guarding against a verifier that
silently passes everything.
"""

from __future__ import annotations

import pytest

from repro.core.agreed import AgreedQueue
from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.errors import VerificationError
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario, run_scenario
from repro.harness.verify import (_is_contiguous_slice,
                                  _node_delivered_set, verify_run)
from repro.workloads.generators import PoissonWorkload


def healthy_cluster(seed=70):
    result = run_scenario(Scenario(
        cluster=ClusterConfig(n=3, seed=seed, protocol="basic"),
        workload=PoissonWorkload(1.5, 6.0, seed=seed),
        duration=10.0))
    return result.cluster


class TestHelpers:
    def test_contiguous_slice_positive(self):
        canonical = [MessageId(0, 1, i) for i in range(1, 6)]
        assert _is_contiguous_slice(canonical[1:4], canonical)
        assert _is_contiguous_slice([], canonical)
        assert _is_contiguous_slice(canonical, canonical)

    def test_contiguous_slice_negative(self):
        canonical = [MessageId(0, 1, i) for i in range(1, 6)]
        gap = [canonical[0], canonical[2]]
        assert not _is_contiguous_slice(gap, canonical)
        foreign = [MessageId(9, 9, 9)]
        assert not _is_contiguous_slice(foreign, canonical)
        swapped = [canonical[1], canonical[0]]
        assert not _is_contiguous_slice(swapped, canonical)

    def test_node_delivered_set_covers_checkpointed_prefix(self):
        queue = AgreedQueue()
        queue.append_batch([AppMessage(MessageId(0, 1, 1), "a"),
                            AppMessage(MessageId(1, 1, 1), "b")])
        queue.compact("state")
        queue.append_batch([AppMessage(MessageId(0, 1, 2), "c")])

        class Stub:
            agreed = queue

        ids = _node_delivered_set(Stub())
        assert ids == {MessageId(0, 1, 1), MessageId(1, 1, 1),
                       MessageId(0, 1, 2)}


class TestInjectedViolations:
    def test_clean_run_passes(self):
        verify_run(healthy_cluster())

    def test_validity_spurious_message(self):
        cluster = healthy_cluster(seed=71)
        ghost = AppMessage(MessageId(7, 7, 7), "ghost")
        # Inject into the decision archive: it never was broadcast.
        highest = max(cluster.collector.decisions)
        cluster.collector.decisions[highest + 1] = frozenset({ghost})
        for abcast in cluster.abcasts.values():
            abcast.agreed.append_batch([ghost])
        with pytest.raises(VerificationError, match="validity"):
            verify_run(cluster)

    def test_total_order_non_prefix_set(self):
        cluster = healthy_cluster(seed=72)
        # Remove a mid-sequence message from one node's queue (keep its
        # later ones): the delivered set is no longer a canonical prefix.
        abcast = cluster.abcasts[0]
        sequence = abcast.agreed.sequence()
        assert len(sequence) >= 3
        rebuilt = AgreedQueue()
        rebuilt.append_batch([sequence[0]])
        rebuilt.append_batch([sequence[2]])
        abcast.agreed = rebuilt
        with pytest.raises(VerificationError, match="total order"):
            verify_run(cluster, check_termination=False)

    def test_suffix_out_of_canonical_order(self):
        cluster = healthy_cluster(seed=73)
        abcast = cluster.abcasts[1]
        assert len(abcast.agreed.suffix) >= 2
        abcast.agreed.suffix.reverse()
        with pytest.raises(VerificationError, match="total order"):
            verify_run(cluster, check_termination=False)

    def test_duplicate_in_suffix(self):
        cluster = healthy_cluster(seed=74)
        abcast = cluster.abcasts[2]
        abcast.agreed.suffix.append(abcast.agreed.suffix[0])
        with pytest.raises(VerificationError):
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
        cluster.abcasts[1].agreed = AgreedQueue()
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
        cluster.abcasts[2]._joining = True
        with pytest.raises(VerificationError, match="still joining"):
            verify_run(cluster)

    def test_decision_disagreement_between_nodes(self):
        cluster = healthy_cluster(seed=77)
        # Rewrite one node's locked decision for instance 0.
        other = AppMessage(MessageId(8, 8, 8), "evil")
        cluster.consensuses[0]._decisions[0] = frozenset({other})
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
        # What a recovery that skipped one checkpoint segment leaves
        # behind: queue, tracker and delivery streams all in order, one
        # stretch missing from what the application holds.
        app = cluster.app(2)
        del app.entries[3:6]
        with pytest.raises(VerificationError, match="application state"):
            verify_run(cluster)

    def test_message_applied_twice(self):
        cluster = restored_cluster()
        app = cluster.app(2)
        app.entries.insert(4, app.entries[4])
        with pytest.raises(VerificationError, match="application state"):
            verify_run(cluster)

    def test_truncated_application_at_a_good_node(self):
        cluster = restored_cluster()
        del cluster.app(2).entries[-2:]
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
