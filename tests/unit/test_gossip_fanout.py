"""The gossip task says each thing once: a payload crosses each link once
unless a later digest shows it lost, the digest goes to a rotating
``⌈log₂ n⌉`` peers a tick, and a peer gets a gossip only when it carries
a push, a ``want`` or its turn of the digest."""

from __future__ import annotations

import math

from repro.core.messages import GossipMessage
from repro.fdetect.heartbeat import Heartbeat, HeartbeatDetector
from repro.harness.cluster import Cluster, ClusterConfig
from tests.conftest import tap


def build(n, seed, protocol="basic"):
    cluster = Cluster(ClusterConfig(n=n, seed=seed, protocol=protocol))
    cluster.start()
    return cluster


def gossips(seen, src=None, dst=None, since=0.0):
    return [(when, s, d, message) for when, s, d, message in seen
            if message.type == GossipMessage.type and when >= since
            and src in (None, s) and dst in (None, d)]


def carries(message, mid):
    return any(payload.id == mid for payload in message.payloads)


def delivered_everywhere(cluster, payload):
    return all([m.payload for m in ab.deliver_sequence()] == [payload]
               for ab in cluster.abcasts.values())


class ConsensusGate:
    """A ``drop`` for :func:`tap` that holds back every consensus
    message while closed, so a message stays Unordered everywhere, and
    loses whatever ``also`` selects."""

    def __init__(self, also=lambda src, dst, message: False):
        self.closed = True
        self.also = also

    def __call__(self, src, dst, message):
        if self.closed and message.type.startswith("paxos."):
            return True
        return self.also(src, dst, message)


class TestDigestRotation:
    def test_every_node_hears_every_peers_digest_within_two_ticks(self):
        n = 9                               # f = ⌈log₂ 9⌉ = 4 of 8 peers
        cluster = build(n, seed=21)
        seen = tap(cluster.network)
        cluster.run(until=5.0)
        interval = cluster.config.gossip_interval
        digests = {}
        for when, src, dst, message in gossips(seen):
            tick = round(when / interval)
            if message.known is not None:
                digests.setdefault((src, tick), set()).add(dst)
        for src in range(n):
            peers = set(range(n)) - {src}
            for tick in range(20):
                assert len(digests[(src, tick)]) == 4
                # Two consecutive ticks reach every peer.
                assert digests[(src, tick)] | digests[(src, tick + 1)] \
                    == peers
        # The first digest goes to the peers after the node's own id.
        assert digests[(5, 0)] == {6, 7, 8, 0}

    def test_small_groups_digest_to_every_peer(self):
        cluster = build(3, seed=22)
        seen = tap(cluster.network)
        cluster.run(until=2.0)
        assert all(message.known is not None
                   for *_, message in gossips(seen))


class TestQuietGossip:
    def test_a_gossip_carries_a_push_a_want_or_a_due_digest(self):
        # n = 9: the digest goes to f = 4 of 8 peers a tick, and a gossip
        # goes nowhere else unless it pushes or pulls something.
        n, fanout = 9, 4
        cluster = Cluster(ClusterConfig(n=n, seed=4))
        seen = tap(cluster.network)
        cluster.start()
        for j in range(20):
            cluster.sim.schedule(0.5 + 0.3 * j, cluster.submit, j % n, j)
        cluster.run(until=10.0)
        interval = cluster.config.gossip_interval
        digests, sent = {}, 0
        for when, src, dst, message in gossips(seen):
            sent += 1
            assert message.payloads or message.want \
                or message.known is not None
            if message.known is not None:
                tick = round(when / interval)
                digests.setdefault((src, tick), set()).add(dst)
        # Every peer hears each node's digest within ⌈(n−1)/f⌉ = 2 ticks.
        window = math.ceil((n - 1) / fanout)
        for src in range(n):
            peers = set(range(n)) - {src}
            for tick in range(41 - window + 1):
                heard = set().union(*(digests[(src, tick + i)]
                                      for i in range(window)))
                assert heard == peers
        assert sent < 41 * n * (n - 1) * 2 // 3   # most links stay quiet
        # A quiet link is the leader's to fill; nobody else beats.
        assert {src for _, src, _, message in seen
                if message.type == Heartbeat.type} == {0}
        for node in cluster.nodes.values():
            assert node.get_component(HeartbeatDetector).suspects() == set()

    def test_a_dropped_decide_is_pulled_within_a_rotation_and_a_tick(self):
        n, fanout = 9, 4
        cluster = build(n, seed=31)
        dropped = []

        def decide_to_5(src, dst, message):
            if (dst, message.type) == (5, "paxos.decide") \
                    and message.k == 0 and not dropped:
                dropped.append(cluster.sim.now)
                return True
            return False

        tap(cluster.network, drop=decide_to_5)
        cluster.submit(2, "m")
        consensus = cluster.consensuses[5]
        while consensus.decided_value(0) is None:
            cluster.run(until=cluster.sim.now + 0.01)
        assert dropped
        interval = cluster.config.gossip_interval
        max_delay = cluster.config.network.max_delay
        ticks = math.ceil((n - 1) / fanout) + 1
        # Gossip k, then the query and its answer, each a link delay.
        assert cluster.sim.now - dropped[0] \
            <= ticks * interval + 3 * max_delay + 0.01
        cluster.run(until=cluster.sim.now + 2.0)
        assert delivered_everywhere(cluster, "m")


class TestBudget:
    def test_n25_costs_at_most_45_messages_per_delivery(self):
        n = 25
        cluster = Cluster(ClusterConfig(n=n, seed=11))
        seen = tap(cluster.network)
        cluster.start()
        for j in range(400):                # 50 msg/s over t = 1 … 9
            cluster.sim.schedule(1.0 + 0.02 * j, cluster.submit, j % n, j)
        cluster.run(until=10.0)
        delivered = len(cluster.collector.first_delivery)
        assert delivered >= 390
        assert len(seen) / delivered <= 45
        assert [src for when, src, _, message in seen
                if message.type == Heartbeat.type and when > 1.0
                and src != 0] == []


class TestPushOnEvidence:
    def test_a_dropped_push_is_resent_after_the_peers_next_digest(self):
        lost = []

        def first_push_to_3(src, dst, message):
            if (src, dst, message.type) == (1, 3, GossipMessage.type) \
                    and message.payloads and not lost:
                lost.append((cluster.sim.now, message))
                return True
            return False

        n = 9
        cluster = build(n, seed=23)
        gate = ConsensusGate(also=first_push_to_3)
        seen = tap(cluster.network, drop=gate)
        message = cluster.submit(1, "m")
        cluster.run(until=3.0)
        (lost_at, dropped), = lost
        assert carries(dropped, message.id)
        pushes = [(when, dst) for when, _, dst, gossip
                  in gossips(seen, src=1) if carries(gossip, message.id)]
        # One copy per link; the resend to 3 follows the first digest 3
        # sent after the lost push.
        assert sorted(dst for _, dst in pushes) == \
            sorted(set(range(n)) - {1})
        resent, = [when for when, dst in pushes if dst == 3]
        digest_at = min(when for when, _, _, gossip
                        in gossips(seen, src=3, dst=1)
                        if when > lost_at and gossip.known is not None)
        interval = cluster.config.gossip_interval
        max_delay = cluster.config.network.max_delay
        assert digest_at < resent <= digest_at + max_delay + interval
        assert message.id in cluster.abcasts[3].unordered
        gate.closed = False
        cluster.run(until=15.0)
        assert delivered_everywhere(cluster, "m")

    def test_a_recovered_peer_is_repushed_after_its_first_digest(self):
        cluster = build(9, seed=24)
        gate = ConsensusGate()
        seen = tap(cluster.network, drop=gate)
        message = cluster.submit(1, "m")
        cluster.run(until=2.0)
        assert message.id in cluster.abcasts[3].unordered
        cluster.crash(3)                      # basic: Unordered is lost
        # Between two ticks: 1's last digest to 3 lands while 3 is down,
        # so 3 cannot ask 1 for the message before 1 pushes it again.
        cluster.run(until=2.1)
        cluster.recover(3)
        cluster.run(until=5.0)
        assert message.id in cluster.abcasts[3].unordered
        repushed, = [when for when, _, _, gossip
                     in gossips(seen, src=1, dst=3, since=2.1)
                     if carries(gossip, message.id)]
        from_3 = gossips(seen, src=3, dst=1, since=2.1)
        first_digest = min(when for when, _, _, gossip in from_3
                           if gossip.known is not None)
        interval = cluster.config.gossip_interval
        max_delay = cluster.config.network.max_delay
        assert first_digest < repushed <= first_digest + max_delay + interval
        assert not any(message.id in gossip.want
                       for when, _, _, gossip in from_3 if when < repushed)
        gate.closed = False
        cluster.run(until=15.0)
        assert delivered_everywhere(cluster, "m")

    def test_crash_and_start_forget_every_push(self):
        cluster = build(3, seed=25)
        tap(cluster.network, drop=ConsensusGate())
        message = cluster.submit(0, "m")
        cluster.run(until=0.5)
        ab = cluster.abcasts[0]
        assert all(message.id in ab._pushed[peer] for peer in (1, 2))
        cluster.crash(0)
        assert ab._pushed == {}


class TestGossipWithoutDigest:
    def test_the_view_stands_and_the_want_is_served_next_tick(self):
        cluster = build(3, seed=26)
        seen = tap(cluster.network, drop=ConsensusGate())
        relayed = cluster.submit(2, "from-2")
        cluster.run(until=0.5)
        cluster.crash(1)                        # only this test speaks for 1
        cluster.run(until=0.7)                  # what 1 sent has landed
        ab = cluster.abcasts[0]
        assert relayed.id in ab.unordered
        ab._on_gossip(GossipMessage(0, frozenset(), 0,
                                    known=frozenset({(2, 9, 9)})), sender=1)
        view = ab._peers[1]
        ab._on_gossip(GossipMessage(0, frozenset(), 0, known=None,
                                    want=frozenset({tuple(relayed.id)})),
                      sender=1)
        assert ab._peers[1] is view
        assert view.known == {(2, 9, 9)} and view.missing == {(2, 9, 9)}
        assert view.asked == {relayed.id}
        del seen[:]
        cluster.run(until=cluster.sim.now + cluster.config.gossip_interval)
        (_, _, _, answer), = gossips(seen, src=0, dst=1)
        assert carries(answer, relayed.id)
        assert answer.want == {(2, 9, 9)}      # and we still pull from 1

    def test_a_first_gossip_without_digest_is_no_evidence(self):
        cluster = build(3, seed=27)
        ab = cluster.abcasts[0]
        ab._on_gossip(GossipMessage(0, frozenset(), 0, known=None), sender=1)
        assert 1 not in ab._peers


class TestPushedIsPruned:
    def test_when_ordered_and_when_the_peer_leaves_the_view(self):
        cluster = build(4, seed=28)
        ab = cluster.abcasts[0]
        message = cluster.submit(0, "m")
        cluster.run(until=0.1)
        assert all(message.id in ab._pushed[peer] for peer in (1, 2, 3))
        while not ab.delivered_count():
            cluster.run(until=cluster.sim.now + 0.01)
        assert set(ab._pushed) == {1, 2, 3}
        assert all(sent == {} for sent in ab._pushed.values())
        cluster.remove_node(3)
        cluster.run(until=cluster.sim.now + 5.0)
        assert cluster.views[0].members() == (0, 1, 2)
        assert 3 not in ab._pushed and 3 not in ab._peers
