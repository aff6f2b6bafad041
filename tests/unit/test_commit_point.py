"""The commit point: where a steady-state instance's decision is durable.

An acceptor logs one record per instance, ``(ballot, value, commit)``,
and the ``commit`` its leader's next ``Accept`` carries is what proves,
after a restart, that an earlier record of the same ballot holds the
decided value.  These are the crash points of that scheme: a crash
between the record and its ``Accepted``; a follower restarting with
records from two ballots; a leader change between a commit and the next
``Accept``; a leader that dies right after deciding, before any commit
point covers the decision; and a leader that learns an instance was
decided at another ballot while a follower holds a lower-ballot record
for it.
"""

from __future__ import annotations

from repro.consensus.paxos import Decide, make_ballot
from repro.harness.cluster import Cluster, ClusterConfig
from tests.unit.test_delta_checkpoints import CrashPointStorage
from tests.unit.test_paxos_footprint import PaxosCluster


def no_drop(src, dst, message):
    return False


def advance_until(cluster, predicate, limit=1.0):
    """Run in small steps until ``predicate()`` holds (or ``limit``)."""
    deadline = cluster.sim.now + limit
    while not predicate() and cluster.sim.now < deadline:
        cluster.advance(0.005)
    return predicate()


def decided_prefix(cluster, node_id, count):
    return [cluster.consensuses[node_id].decided_value(k)
            for k in range(count)]


class TestCrashBetweenRecordAndAccepted:
    def test_the_restarted_acceptor_answers_from_its_record(self):
        cluster = PaxosCluster(storage=CrashPointStorage).start()
        cluster.join_all(0)
        cluster.advance(2.0)
        ballot = make_ballot(0, 1, 0)
        victim = cluster.nodes[2]
        crashed = []

        def drop(src, dst, message):
            if not message.type.startswith("paxos."):
                return False
            if 1 in (src, dst) and src != dst:
                return True     # node 1 is cut off: the leader needs 2
            if (src, message.type, message.k) == (2, "paxos.accepted", 1) \
                    and not crashed:
                # Node 2 logged its record; it dies before the Accepted
                # leaves.
                crashed.append(message)
                cluster.sim.schedule(0.0, victim.crash)
                return True
            return False
        cluster.drop = drop
        cluster.join_all(1)
        assert advance_until(cluster, lambda: not victim.up)
        value = frozenset({"k1-from-0"})
        assert cluster.record(2, "paxos/1/acceptor") == (ballot, value, 0)
        assert cluster.decisions(1)[0] is None
        victim.recover()
        cluster.advance(1.0)
        # The leader's re-sent Accept, at the same ballot, finds the
        # record: answered without a second write, the ballot unspent.
        assert cluster.decisions(1)[0] == cluster.decisions(1)[2] == value
        assert victim.storage.operations.count("paxos/1/acceptor") == 1
        assert cluster.consensuses[0].ballots_retired == 0


class TestTwoBallotsBelowTheCommitPoint:
    def records_from_two_ballots(self):
        """Instances 0-2 decided at leader 0's first ballot, 3-5 at its
        second (instance 3's first attempt met silence and spent it)."""
        cluster = PaxosCluster().start()
        for k in range(3):
            cluster.join_all(k)
            cluster.advance(2.0)
        cluster.drop = lambda src, dst, m: m.type == "paxos.promise"
        cluster.join_all(3)
        cluster.advance(1.1)
        assert cluster.consensuses[0].ballots_retired == 1
        cluster.drop = no_drop
        cluster.advance(2.0)
        for k in (4, 5):
            cluster.join_all(k)
            cluster.advance(2.0)
        first, second = make_ballot(0, 1, 0), make_ballot(1, 1, 0)
        assert [cluster.record(2, f"paxos/{k}/acceptor")[0]
                for k in range(6)] == [first] * 3 + [second] * 3
        return cluster

    def test_the_covered_ones_replay_and_the_rest_are_pulled(self):
        cluster = self.records_from_two_ballots()
        decided = [cluster.decisions(k)[0] for k in range(6)]
        assert None not in decided
        cluster.nodes[2].crash()
        cluster.nodes[2].recover()
        follower = cluster.consensuses[2]
        # The last instance of each ballot: no commit point of its own
        # ballot ever covered it.
        assert decided_prefix(cluster, 2, 6) == \
            decided[:2] + [None] + decided[3:5] + [None]
        for k in (2, 5):
            follower.pull_decision(k, peer=0)
        cluster.advance(0.5)
        assert decided_prefix(cluster, 2, 6) == decided

    def test_through_the_atomic_broadcast_layer(self):
        cluster = Cluster(ClusterConfig(n=3, seed=5, protocol="basic"))
        cluster.start()
        for j in range(6):
            cluster.sim.schedule(0.5 + 0.3 * j, cluster.submit, j % 3,
                                 f"a{j}")
        cluster.run(until=4.0)
        cluster.crash(0)                # the leader: its ballot ends here
        for j in range(6):
            cluster.sim.schedule(6.0 + 0.3 * j, cluster.submit, 1 + j % 2,
                                 f"b{j}")
        cluster.run(until=12.0)
        assert cluster.settle(within=10.0)
        follower = cluster.abcasts[2]
        rounds, before = follower.k, follower.deliver_sequence()
        ballots = [cluster.nodes[2].storage.retrieve(
            ("paxos", k, "acceptor"))[0] for k in range(rounds)]
        assert len(set(ballots)) == 2
        cluster.crash(2)
        cluster.recover(2)
        follower = cluster.abcasts[2]
        cluster.run(until=cluster.sim.now + 0.001)
        # The records carry replay up to the first round no commit point
        # covers, the old leader's last one; from there it is pulled.
        gap = ballots.index(ballots[-1]) - 1
        assert follower.k == gap and not follower.replay_complete
        cluster.run(until=cluster.sim.now + 5.0)
        assert follower.replay_complete and follower.replayed_rounds == rounds
        assert follower.deliver_sequence() == before


class TestProvedDecisionsAreReported:
    def test_each_decision_the_log_proves_reaches_the_stream(self):
        """A restarted node locks what its records prove without hearing
        a decision; the lock is still reported, so the event archive's
        agreement check sees every value a node acts on."""
        cluster = Cluster(ClusterConfig(n=3, seed=5, protocol="basic"))
        cluster.collector.keep_events()
        cluster.start()
        for j in range(6):
            cluster.sim.schedule(0.5 + 0.3 * j, cluster.submit, j % 3,
                                 f"a{j}")
        cluster.run(until=4.0)
        cluster.crash(2)
        cluster.recover(2)
        back = cluster.sim.now
        cluster.run(until=back + 0.001)
        replayed = cluster.abcasts[2].k
        assert replayed > 0
        proved = {event.details["k"] for event in cluster.collector.select(
            "decision", node=2, action="locked") if event.time >= back}
        assert proved >= set(range(replayed))


class TestLeaderChangeBetweenCommitAndAccept:
    def test_a_new_leader_starts_its_own_commit_point(self):
        cluster = PaxosCluster().start()
        for k in range(3):
            cluster.join_all(k)
            cluster.advance(2.0)
        # Instance 2 is decided and its Decide went out; the next
        # Accept, which would carry its commit, never comes from 0.
        cluster.omegas[0].is_leader = lambda: False
        cluster.always_leader(1)
        for k in (3, 4):
            cluster.join_all(k)
            cluster.advance(2.0)
        decided = [cluster.decisions(k)[0] for k in range(5)]
        assert decided[3] == frozenset({"k3-from-1"})
        # Ballot 1's first Accept covers nothing: a commit point speaks
        # only for its own ballot.
        assert {(m.k, m.commit) for _, _, m in
                cluster.of_type("paxos.accept", src=1)} == {(3, -1), (4, 3)}
        cluster.nodes[2].crash()
        cluster.nodes[2].recover()
        assert decided_prefix(cluster, 2, 5) == \
            decided[:2] + [None, decided[3], None]
        cluster.nodes[2].crash()
        cluster.nodes[2].recover()
        for k in (2, 4):
            cluster.consensuses[2].pull_decision(k, peer=1)
        cluster.advance(0.5)
        assert decided_prefix(cluster, 2, 5) == decided


class TestLeaderCrashBeforeAnyCommitPoint:
    def test_the_instance_is_re_decided_with_the_same_value(self):
        cluster = PaxosCluster().start()
        # The decision stays with the leader: its Decide is lost, and no
        # Accept follows to carry the commit point.
        cluster.drop = lambda src, dst, m: m.type == "paxos.decide"
        cluster.join_all(0)
        cluster.advance(0.5)
        value = cluster.decisions(0)[0]
        assert value == frozenset({"k0-from-0"})
        assert cluster.decisions(0)[1:] == [None, None]
        cluster.nodes[0].crash()
        cluster.drop = no_drop
        # Node 1 takes over; its own value source would bind another
        # batch, but phase 1 reports the accepted one.
        cluster.advance(10.0)
        assert cluster.decisions(0)[1:] == [value, value]
        cluster.nodes[0].recover()
        assert cluster.consensuses[0].decided_value(0) is None
        cluster.consensuses[0].pull_decision(0, peer=1)
        cluster.advance(0.5)
        assert cluster.decisions(0) == [value] * 3

    def test_a_whole_cluster_restart_re_decides_it_too(self):
        cluster = PaxosCluster().start()
        cluster.drop = lambda src, dst, m: m.type == "paxos.decide"
        cluster.join_all(0)
        cluster.advance(0.5)
        value = cluster.decisions(0)[0]
        for node in cluster.nodes.values():
            node.crash()
        for node in cluster.nodes.values():
            node.recover()
        cluster.drop = no_drop
        assert cluster.decisions(0) == [None] * 3
        for consensus in cluster.consensuses.values():
            consensus.value_source = lambda j: frozenset({"fresh"})
            consensus.join(0)
        cluster.advance(3.0)
        assert cluster.decisions(0) == [value] * 3


class TestAForeignDecisionStopsTheCommitPoint:
    def test_a_lower_ballot_record_is_never_covered(self):
        """Leader 0 sends instance 0 at its ballot to node 4 only; leader
        1 decides another value for it at a higher ballot with nodes 1-3;
        leader 0 learns that by value and then, on promises gathered
        before the higher ballot, sends instance 1 at its own.  Node 4
        accepts that Accept: had its commit point counted instance 0,
        node 4's records would prove the value that was *not* chosen."""
        cluster = PaxosCluster(n=5).start()
        low = cluster.consensuses[0]
        low.attempt_timeout = 10.0      # no re-send, no retirement
        cluster.advance(0.5)
        held = []

        def drop(src, dst, m):
            if not m.type.startswith("paxos.") or src == dst:
                return False
            if src == 0 and m.type == "paxos.accept" and m.k == 0:
                return dst != 4
            if dst == 0 and m.type == "paxos.promise" and m.k == 1:
                held.append((src, dst, m))
                return True
            return src == 1 and dst in (0, 4) or m.type == "paxos.nack"
        cluster.drop = drop
        low.value_source = lambda j: frozenset({f"low-{j}"})
        low.join(0)
        low.join(1)
        assert advance_until(
            cluster, lambda: cluster.record(4, "paxos/0/acceptor"))
        assert cluster.record(4, "paxos/0/acceptor")[1] == \
            frozenset({"low-0"})
        high = cluster.consensuses[1]
        cluster.always_leader(1)
        high.value_source = lambda j: frozenset({f"high-{j}"})
        high.join(0)
        assert advance_until(cluster, lambda: all(
            cluster.consensuses[i].decided_value(0) for i in (1, 2, 3)))
        chosen = frozenset({"high-0"})
        assert [cluster.consensuses[i].decided_value(0)
                for i in (1, 2, 3)] == [chosen] * 3
        low._on_decide(Decide(0, -1, chosen), sender=1)
        assert low.decided_value(0) == chosen
        for message in held:
            cluster._send(*message)
        assert advance_until(
            cluster, lambda: cluster.record(4, "paxos/1/acceptor"))
        second = [m for _, d, m in cluster.of_type("paxos.accept", src=0)
                  if m.k == 1 and d == 4]
        assert second and second[0].commit == -1
        assert cluster.record(4, "paxos/1/acceptor")[1] == \
            frozenset({"low-1"})
        cluster.nodes[4].crash()
        cluster.nodes[4].recover()
        assert cluster.consensuses[4].decided_value(0) in (None, chosen)
