"""Paxos sends a peer only what it needs.

The proposer's own acceptor answers its ``Prepare`` and ``Accept``
in-process, so no Paxos message is addressed to its sender; and the Ω
leader's ``Decide(k - 1)`` carries ``Prepare(k)`` at the same ballot, so
in steady state phase 1 costs no message of its own.  These tests pin
both, and the ways a folded ``Prepare`` can go wrong: the leader dies
before the promises are in, the ``Decide`` carrying it is lost, a
follower already promised higher, and a reconfiguration decided in
``k - 1`` removes a member that promised ``k``.
"""

from __future__ import annotations

from repro.consensus.paxos import Prepare, make_ballot
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.live import LiveCluster
from repro.harness.verify import verify_run
from repro.transport.network import NetworkConfig
from tests.conftest import tap
from tests.unit.test_paxos_footprint import PaxosCluster, _StaticView

FAST = NetworkConfig(min_delay=0.01, max_delay=0.02)


def build(n=3, seed=0, network=None):
    cluster = Cluster(ClusterConfig(n=n, seed=seed, protocol="basic",
                                    network=network or NetworkConfig()))
    cluster.start()
    return cluster


def stream(cluster, count, start=0.3, gap=0.1):
    """``count`` messages, round-robin over the nodes that are up."""
    def submit(j):
        up = [i for i, node in sorted(cluster.nodes.items()) if node.up]
        cluster.submit(up[j % len(up)], f"m{j}")
    for j in range(count):
        cluster.sim.schedule(start + gap * j, submit, j)


def self_addressed(seen):
    return [(src, message.type) for _, src, dst, message in seen
            if src == dst and message.type.startswith("paxos.")]


def on_decision(consensus, k, action):
    """Run ``action`` in the step after ``consensus`` records ``k``'s
    decision — where Atomic Broadcast delivers ``k`` and enters
    ``k + 1`` — and before the ``Decide`` leaves."""
    record = consensus._record_decision

    def recorded(instance, value):
        record(instance, value)
        if instance == k:
            consensus.node.sim.call_soon(action)
    consensus._record_decision = recorded


def folds(seen, src=0):
    """The ``Decide`` messages from ``src`` that carry a ``Prepare``."""
    return [message for _, s, _, message in seen if s == src
            and message.type == "paxos.decide" and message.prepare_next]


class TestNothingIsAddressedToSelf:
    def test_a_three_node_run(self):
        cluster = build(seed=3)
        seen = tap(cluster.network)
        stream(cluster, 120, gap=0.02)
        cluster.run(until=6.0)
        assert cluster.settle(within=10.0)
        verify_run(cluster)
        assert self_addressed(seen) == []
        # Each instance's phase 1 was asked for once: by the Decide
        # before it when the leader had more to order at once, by a
        # Prepare of its own otherwise — and mostly by the Decide.
        rounds = cluster.abcasts[0].k
        assert rounds >= 5
        folded = {m.k + 1 for m in folds(seen)}
        prepared = {m.k for _, src, _, m in seen
                    if m.type == "paxos.prepare"}
        assert 0 in prepared and not folded & prepared
        assert folded | prepared >= set(range(rounds))
        assert len(folded) > len(prepared)
        assert len(folds(seen)) == 2 * len(folded)

    def test_a_single_node_sends_nothing_at_all(self):
        cluster = build(n=1, seed=3)
        seen = tap(cluster.network)
        stream(cluster, 20)
        cluster.run(until=4.0)
        assert cluster.settle(within=10.0)
        verify_run(cluster)
        assert len(cluster.abcasts[0].deliver_sequence()) == 20
        assert seen == []
        assert cluster.network.metrics.sent == 0

    def test_a_live_three_node_run(self, tmp_path):
        cluster = LiveCluster(ClusterConfig(n=3, seed=4, protocol="basic"),
                              str(tmp_path))
        seen = []
        send = cluster.network.send

        def tapped(src, dst, message):
            seen.append((0.0, src, dst, message))
            send(src, dst, message)
        cluster.network.send = tapped
        with cluster:
            cluster.start()
            cluster.run_for(0.5)
            for j in range(12):
                cluster.runtime.schedule(0.1 * j, cluster.submit, j % 3,
                                         f"m{j}")
            cluster.run_for(1.5)
            assert cluster.settle(within=10.0)
        assert any(m.type == "paxos.accept" for *_, m in seen)
        assert self_addressed(seen) == []


class TestARoundAfterAnIdleSpell:
    def test_opens_with_its_own_prepare_and_the_push_rides_it(self):
        """Round 0's Decide opens nothing: the leader has nothing more
        to order.  A second later a follower's message and, a
        millisecond after it, the leader's own open round 1 between two
        gossip ticks: its own Prepare goes, at the same ballot, and the
        follower's push rides its Promise into the batch."""
        cluster = build(seed=8, network=FAST)
        seen = tap(cluster.network)
        cluster.sim.schedule(0.3, cluster.submit, 0, "first")
        cluster.run(until=1.2)
        decides = [m for _, src, _, m in seen if m.type == "paxos.decide"]
        assert [(m.k, m.prepare_next) for m in decides] == \
            [(0, False), (0, False)]
        assert cluster.abcasts[0].k == 1
        cluster.sim.schedule(0.06, cluster.submit, 2, "later")
        cluster.sim.schedule(0.061, cluster.submit, 0, "own")
        cluster.run(until=3.0)
        prepares = [(dst, m.ballot) for _, src, dst, m in seen
                    if m.type == "paxos.prepare" and m.k == 1]
        assert sorted(prepares) == [(1, decides[0].ballot),
                                    (2, decides[0].ballot)]
        promise = next(i for i, (_, src, dst, m) in enumerate(seen)
                       if (src, dst, m.type) == (2, 0, "paxos.promise")
                       and m.k == 1 and i > len(seen) - 40)
        # The push is the Promise's rider: the same packet, handed over
        # first.
        rider = seen[promise - 1]
        assert rider[:3] == seen[promise][:3]
        assert [m.payload for m in rider[3].payloads] == ["later"]
        assert sorted(m.payload for m in
                      cluster.consensuses[0].decided_value(1)) == \
            ["later", "own"]
        assert cluster.consensuses[0].ballots_retired == 0


class TestAFoldedPrepareGoneWrong:
    def test_the_leader_crashes_before_the_promises_are_in(self):
        cluster = build(seed=6, network=FAST)
        crashed = []

        def crash_after_fold(src, dst, message):
            # The leader dies right after its folded Decide leaves, to
            # both peers: their promises come back to a dead process.
            if src == 0 and message.type == "paxos.decide" \
                    and message.prepare_next and message.k >= 2 \
                    and not crashed:
                crashed.append(message)
                cluster.sim.schedule(0.0, cluster.crash, 0)
            return False
        seen = tap(cluster.network, drop=crash_after_fold)
        stream(cluster, 40, gap=0.05)
        cluster.run(until=8.0)
        assert crashed
        fold = crashed[0]
        k = fold.k + 1
        assert {src for _, src, dst, m in seen if dst == 0
                and m.type == "paxos.promise" and m.k == k} == {1, 2}
        # The next leader opens k with a Prepare of its own, above the
        # ballot the dead leader's Decide carried.
        mine = [m for _, src, _, m in seen if src == 1
                and m.type == "paxos.prepare" and m.k == k]
        assert mine and all(m.ballot > fold.ballot for m in mine)
        cluster.recover(0)
        cluster.run(until=12.0)
        assert cluster.settle(within=30.0)
        verify_run(cluster)

    def test_a_lost_fold_is_repaired_by_a_resent_prepare(self):
        cluster = build(seed=7, network=FAST)
        lost, queried = [], set()

        def lose_first_fold(src, dst, message):
            if message.type == "paxos.query":
                queried.add(src)
            if message.type == "paxos.decide" and message.prepare_next \
                    and message.k >= 2 and (not lost or lost[0].k
                                            == message.k):
                lost.append(message)
                return True
            # Nor does the next Accept's commit point tell a follower
            # the decision before it has asked for it.
            return bool(lost) and message.type == "paxos.accept" \
                and message.k == lost[0].k + 1 and dst not in queried
        seen = tap(cluster.network, drop=lose_first_fold)
        stream(cluster, 40, gap=0.05)
        cluster.run(until=6.0)
        assert len(lost) == 2                   # to both followers
        fold = lost[0]
        k = fold.k + 1
        # Phase 1 of k stays open at the fold's ballot: a re-sent,
        # standalone Prepare asks the followers, and no ballot is spent.
        resent = [(dst, m.ballot) for _, src, dst, m in seen if src == 0
                  and m.type == "paxos.prepare" and m.k == k]
        assert sorted(resent) == [(1, fold.ballot), (2, fold.ballot)]
        leader = cluster.consensuses[0]
        assert leader.resends >= 2 and leader.ballots_retired == 0
        # The followers pull the decision the lost Decide carried.
        assert {src for _, src, dst, m in seen if dst == 0
                and m.type == "paxos.query" and m.k == fold.k} == {1, 2}
        assert {dst for _, src, dst, m in seen if src == 0
                and m.type == "paxos.decide" and m.k == fold.k
                and m.ballot == -1} == {1, 2}
        assert cluster.settle(within=10.0)
        verify_run(cluster)

    def test_a_follower_that_promised_higher_nacks_the_fold(self):
        cluster = PaxosCluster().start()
        cluster.join_all(0)
        cluster.advance(2.0)
        high = make_ballot(5, 1, 1)
        on_decision(cluster.consensuses[0], 1,
                    lambda: cluster.join_all(2))

        def promise_higher_first(src, dst, message):
            if message.type == "paxos.decide" and message.k == 1:
                # Each follower promises a higher ballot just before the
                # fold reaches it.
                assert message.prepare_next
                cluster.consensuses[dst]._on_prepare(Prepare(7, high),
                                                     sender=1)
            return False
        cluster.drop = promise_higher_first
        cluster.join_all(1)
        cluster.advance(2.0)
        assert cluster.decisions(1)[0] is not None
        assert {(s, m.k, m.promised) for s, _, m in
                cluster.of_type("paxos.nack")} == {(1, 2, high), (2, 2, high)}
        leader = cluster.consensuses[0]
        assert leader.ballots_retired == 1
        ballots = {m.ballot for _, _, m in
                   cluster.of_type("paxos.prepare", src=0) if m.k == 2}
        assert len(ballots) == 1 and ballots.pop() > high
        values = cluster.decisions(2)
        assert values[0] is not None and values.count(values[0]) == 3

    def test_a_removed_member_s_promise_does_not_count(self):
        """Members (0, 1, 2, 3) decide instance 0, whose delivery
        removes 3: the view (0, 1, 2) is installed and round 1 entered
        before the Decide leaves.  The Decide goes to instance 0's
        members, 3 too, and 3 promises the fold; over round 1's pinned
        members (0, 1, 2) that promise and the leader's own are no
        quorum."""
        cluster = PaxosCluster(n=4, members=(0, 1, 2, 3)).start()
        leader = cluster.consensuses[0]
        view = _StaticView((0, 1, 2))

        def deliver_the_removal():
            for endpoint in cluster.endpoints.values():
                endpoint.view_source = view
            for i in (0, 1, 2):
                cluster.consensuses[i].join(1)
        on_decision(leader, 0, deliver_the_removal)
        holding = [True]
        cluster.drop = lambda src, dst, message: (
            holding[0] and message.type == "paxos.promise"
            and message.k == 1 and src in (1, 2))
        cluster.join_all(0)
        cluster.advance(0.5)
        assert [(d, m.prepare_next) for _, d, m in
                cluster.of_type("paxos.decide")] == \
            [(1, True), (2, True), (3, True)]
        # All three promised; 1's and 2's are held, 3's arrived.
        assert sorted(s for s, d, m in cluster.of_type("paxos.promise")
                      if m.k == 1) == [1, 2, 3]
        assert set(leader._attempts[1].promises) == {0}
        assert not [m for _, _, m in cluster.of_type("paxos.accept")
                    if m.k == 1]
        holding[0] = False
        cluster.advance(1.0)
        assert leader.ballots_retired == 0
        assert sorted(d for _, d, m in cluster.of_type("paxos.accept")
                      if m.k == 1) == [1, 2]
        values = [cluster.consensuses[i].decided_value(1)
                  for i in (0, 1, 2)]
        assert values[0] is not None and values.count(values[0]) == 3
