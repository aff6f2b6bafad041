"""Edge-case tests for the Chandra-Toueg ◇S engine and the CT baseline."""

from __future__ import annotations

from repro.harness.cluster import Cluster, ClusterConfig
from repro.transport.network import NetworkConfig
from tests.unit.test_consensus_ct import CTCluster


class TestRoundRotation:
    def test_rotation_past_every_coordinator(self):
        """With coordinators 0 and 1 both dead, round r=2's coordinator
        decides; rotation wrapped through two suspicion cycles."""
        cluster = CTCluster(n=5, seed=10).start()
        cluster.run(until=2.0)
        cluster.nodes[0].crash()
        cluster.nodes[1].crash()
        for i in (2, 3, 4):
            cluster.consensuses[i].propose(0, frozenset({f"v{i}"}))
        cluster.run(until=120.0)
        values = [cluster.consensuses[i].decided_value(0)
                  for i in (2, 3, 4)]
        assert values[0] is not None
        assert values.count(values[0]) == 3

    def test_late_proposer_still_learns(self):
        """A process that proposes after the decision was reached learns
        it through the eager reliable broadcast relay."""
        cluster = CTCluster(n=3, seed=11).start()
        for i in (0, 1):
            cluster.consensuses[i].propose(0, frozenset({f"v{i}"}))
        # Node 2 stays quiet; in CT every process still participates in
        # rounds (estimates), so it learns the decision regardless.
        cluster.run(until=30.0)
        assert cluster.consensuses[2].decided_value(0) is not None

    def test_timestamp_freshness_preferred(self):
        """A coordinator adopts the estimate with the highest timestamp,
        so a value locked in an earlier round survives coordinator
        changes (the locking argument of [3])."""
        cluster = CTCluster(n=3, seed=12).start()
        for i in range(3):
            cluster.consensuses[i].propose(0, frozenset({f"v{i}"}))
        cluster.run(until=30.0)
        first = cluster.consensuses[0].decided_value(0)
        # Re-running the instance at any node returns the same locked
        # value (it is cached; CT has no re-execution path needed).
        assert cluster.consensuses[1].decided_value(0) == first


class TestCTBaselineProtocol:
    def test_definitive_crash_of_two_in_five(self):
        cluster = Cluster(ClusterConfig(
            n=5, seed=13, protocol="ct",
            network=NetworkConfig(loss_rate=0.0)))
        cluster.start()
        for j in range(6):
            cluster.sim.schedule(0.5 + 0.2 * j, cluster.submit, 0,
                                 ("m", j))
        cluster.sim.schedule(2.0, cluster.crash, 3)
        cluster.sim.schedule(2.0, cluster.crash, 4)
        for j in range(6, 12):
            cluster.sim.schedule(2.5 + 0.2 * j, cluster.submit, 1,
                                 ("m", j))
        cluster.run(until=40.0)
        sequences = [
            [m.payload for m in cluster.abcasts[i].deliver_sequence()]
            for i in (0, 1, 2)]
        assert sequences[0] == sequences[1] == sequences[2]
        assert len(sequences[0]) == 12

    def test_volatile_incarnation_constant(self):
        cluster = Cluster(ClusterConfig(n=3, seed=14, protocol="ct",
                                        network=NetworkConfig()))
        cluster.start()
        message = cluster.submit(0, "m")
        assert message.id.incarnation == 1
        assert cluster.nodes[0].storage.metrics.log_ops == 0
