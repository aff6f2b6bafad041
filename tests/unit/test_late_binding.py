"""Each round's proposal is bound when phase 2 needs it.

The Atomic Broadcast layer enters round ``k`` with ``join(k)``; the
consensus box asks the layer's value source for a value only when an
attempt must pick one — after Paxos's phase 1, when no promise reports
an accepted value — and logs it, as the leader's own acceptor record,
before the ``Accept`` carries it.  So the batch keeps filling through
phase 1, only a process that proposes holds a proposal, and a follower
replays its rounds from the acceptor records a commit point covers.
A driver whose round the layer has left, or that sits below the
participation floor, binds nothing and sends no ``Accept``.
"""

from __future__ import annotations

from repro.consensus.paxos import Accept, Promise
from repro.harness.cluster import Cluster, ClusterConfig
from tests.conftest import tap
from tests.unit.test_gossip_fanout import ConsensusGate


def build(n=3, seed=0, protocol="basic", **kwargs):
    cluster = Cluster(ClusterConfig(n=n, seed=seed, protocol=protocol,
                                    **kwargs))
    cluster.start()
    return cluster


def acceptor_records(node):
    """The instances this node holds an acceptor record for."""
    return sorted(int(key.split("/")[1])
                  for key in node.storage.keys("paxos")
                  if key.endswith("/acceptor"))


def proposals(cluster, i):
    return sorted(cluster.consensuses[i].logged_instances())


def accepts(seen, k):
    return [message for _, _, _, message in seen
            if message.type == Accept.type and message.k == k]


def run_until(cluster, predicate, limit):
    while not predicate() and cluster.sim.now < limit:
        cluster.run(until=cluster.sim.now + 0.005)
    return predicate()


class TestOnlyTheProposerLogs:
    def test_followers_log_no_proposal_and_the_leader_one_a_round(self):
        cluster = build(seed=41)
        for j in range(30):
            cluster.sim.schedule(0.3 + 0.07 * j, cluster.submit, j % 3, j)
        cluster.run(until=10.0)
        assert cluster.settle(within=10.0)
        rounds = cluster.abcasts[0].k
        assert rounds >= 5
        assert cluster.consensuses[1].leader_hint() == 0
        assert proposals(cluster, 0) == list(range(rounds))
        assert proposals(cluster, 1) == []
        assert proposals(cluster, 2) == []
        for node in cluster.nodes.values():
            # One acceptor record a round is all any node logs for it:
            # the leader's proposal is its own, and decisions are volatile.
            assert acceptor_records(node) == list(range(rounds))
            assert list(node.storage.keys("consensus")) == []

    def test_a_restarted_follower_replays_from_its_decisions(self):
        cluster = build(seed=42)
        for j in range(12):
            cluster.sim.schedule(0.3 + 0.4 * j, cluster.submit, j % 3, j)
        cluster.run(until=8.0)
        assert cluster.settle(within=10.0)
        rounds = cluster.abcasts[2].k
        before = cluster.abcasts[2].deliver_sequence()
        assert rounds >= 10 and proposals(cluster, 2) == []
        cluster.crash(2)
        cluster.recover(2)
        follower = cluster.abcasts[2]
        cluster.run(until=cluster.sim.now + 0.001)
        # Every round but the last is covered by the commit point the
        # next round's Accept carried, and replays at once; the last one
        # is re-joined and its decision pulled.
        assert follower.k == rounds - 1 and not follower.replay_complete
        replayed = follower.deliver_sequence()
        assert len(replayed) < len(before)
        assert replayed == before[:len(replayed)]
        cluster.run(until=cluster.sim.now + 5.0)
        assert follower.replay_complete
        assert follower.replayed_rounds == rounds
        assert follower.deliver_sequence() == before
        assert [m.payload for m in before] == cluster.app(0).payloads()


class TestTheBatchFillsThroughPhaseOne:
    def test_a_message_arriving_during_phase_one_joins_the_round(self):
        cluster = build(seed=43)
        gate = ConsensusGate(held=Promise.type)
        seen = tap(cluster.network, drop=gate)
        first = cluster.submit(0, "first")
        assert run_until(cluster, lambda: any(
            message.type == "paxos.prepare" for *_, message in seen), 2.0)
        assert cluster.abcasts[0].k == 0
        second = cluster.submit(0, "second")     # phase 1 still open
        cluster.run(until=cluster.sim.now + 0.1)
        assert cluster.consensuses[0].proposal_of(0) is None
        assert not accepts(seen, 0)
        gate.closed = False
        assert run_until(cluster, lambda: all(
            ab.k >= 1 for ab in cluster.abcasts.values()), 5.0)
        batch = {m.id for m in cluster.consensuses[1].decided_value(0)}
        assert batch == {first.id, second.id}
        assert cluster.consensuses[0].proposal_of(0) == \
            cluster.consensuses[2].decided_value(0)

    def test_the_successor_binds_what_arrived_after_the_round_opened(self):
        cluster = build(5, seed=44)
        gate = ConsensusGate(held=Promise.type)
        seen = tap(cluster.network, drop=gate)
        early = cluster.submit(2, "early")
        assert run_until(cluster, lambda: all(
            early.id in cluster.abcasts[i].unordered for i in (0, 1)), 2.0)
        assert run_until(cluster, lambda: any(
            message.type == "paxos.prepare" for *_, message in seen), 2.0)
        cluster.crash(0)            # round 0 is open; no Accept has gone
        assert not accepts(seen, 0)
        late = cluster.submit(2, "late")
        gate.closed = False
        assert run_until(cluster, lambda: cluster.abcasts[1].k >= 1, 20.0)
        assert cluster.consensuses[2].leader_hint() == 1
        batch = {m.id for m in cluster.consensuses[1].decided_value(0)}
        assert batch == {early.id, late.id}
        assert proposals(cluster, 1) == [0]


class TestADriverOutsideItsRoundBindsNothing:
    def test_an_instance_the_layer_is_not_in_gets_no_accept(self):
        cluster = build(seed=45)
        seen = tap(cluster.network)
        cluster.run(until=1.0)
        leader = cluster.consensuses[0]
        assert cluster.abcasts[0].k == 0 and leader.omega.is_leader()
        leader.join(5)                  # round 5: the layer is in round 0
        cluster.run(until=3.0)
        assert any(message.type == "paxos.prepare" and message.k == 5
                   for *_, message in seen)
        assert not accepts(seen, 5)
        assert leader.proposal_of(5) is None
        assert 5 not in leader._drivers     # nothing to propose: it stopped

    def test_an_instance_below_the_floor_gets_no_accept(self):
        cluster = build(seed=46)
        seen = tap(cluster.network)
        cluster.run(until=1.0)
        leader = cluster.consensuses[0]
        assert cluster.abcasts[0]._proposal_for(0) == frozenset()
        leader.set_instance_floor(3)
        leader.join(0)                  # the layer's own round, but < floor
        cluster.run(until=3.0)
        # The driver leaves at once: nothing for instance 0 is sent.
        assert not any(message.type.startswith("paxos.")
                       and message.k == 0 for *_, message in seen)
        assert leader.proposal_of(0) is None
        assert 0 not in leader._drivers
