"""Payloads go where they can be decided, and gossip says each thing once.

Under Paxos the consensus box hints its Ω leader: an originator pushes a
payload to the leader and its successor, once per link unless a later
digest shows it lost; only the leader pulls; a follower's digest goes to
the leader every tick, and the leader's to a rotating ``⌈log₂ n⌉`` peers
a tick; a peer gets a gossip only when it carries a push, a ``want`` or
its digest.  What a tick makes due leaves on the next frame to that
peer, or at the next tick on a link that stayed quiet.  The decided
``Accept`` carries the batch to everyone else.  With no hint
(Chandra–Toueg) every rule applies to every peer."""

from __future__ import annotations

import math

from repro.core.alternative import AlternativeConfig
from repro.core.messages import GossipMessage
from repro.fdetect.heartbeat import Heartbeat, HeartbeatDetector
from repro.fdetect.omega import OmegaOracle
from repro.harness.cluster import Cluster, ClusterConfig
from tests.conftest import tap


def build(n, seed, protocol="basic", **kwargs):
    cluster = Cluster(ClusterConfig(n=n, seed=seed, protocol=protocol,
                                    **kwargs))
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


def digest_recipients(seen, interval):
    """``(src, tick) -> {dst}`` for every digest sent."""
    digests = {}
    for when, src, dst, message in gossips(seen):
        if message.known is not None:
            tick = round(when / interval)
            digests.setdefault((src, tick), set()).add(dst)
    return digests


def digest_turns(ab):
    """The peers each later tick of ``ab`` makes its digest due to."""
    turns, pick = [], ab._digest_recipients

    def recorded(*args):
        turns.append(pick(*args))
        return turns[-1]
    ab._digest_recipients = recorded
    return turns


class ConsensusGate:
    """A ``drop`` for :func:`tap` that holds back every consensus
    message while closed, so a message stays Unordered everywhere, and
    loses whatever ``also`` selects.  ``held`` narrows the gate to the
    message types starting with it."""

    def __init__(self, also=lambda src, dst, message: False,
                 held="paxos."):
        self.closed = True
        self.also = also
        self.held = held

    def __call__(self, src, dst, message):
        if self.closed and message.type.startswith(self.held):
            return True
        return self.also(src, dst, message)


class TestDigestRotation:
    def test_the_leaders_digest_reaches_all_in_two_ticks(self):
        n = 9                               # f = ⌈log₂ 9⌉ = 4 of 8 peers
        cluster = build(n, seed=21)
        assert cluster.consensuses[5].leader_hint() == 0
        seen = tap(cluster.network)
        turns = digest_turns(cluster.abcasts[0])
        cluster.run(until=5.0)
        interval = cluster.config.gossip_interval
        digests = digest_recipients(seen, interval)
        for tick in range(20):
            assert len(turns[tick]) == 4
            # Two consecutive ticks make it due to every peer ...
            assert turns[tick] | turns[tick + 1] == set(range(1, n))
            # ... and each peer has it by the next tick: at once on a
            # quiet link, else on the frame that made the link busy.
            for peer in turns[tick]:
                assert any(message.known is not None
                           and when <= (tick + 1) * interval
                           for when, _, _, message in gossips(
                               seen, src=0, dst=peer, since=tick * interval))
            # A follower's digest goes to the leader, every tick.
            for src in range(1, n):
                assert digests[(src, tick)] == {0}
        # The first digest goes to the peers after the leader's own id.
        assert turns[0] == {1, 2, 3, 4}

    def test_small_groups_digest_to_every_peer(self):
        cluster = build(3, seed=22)
        seen = tap(cluster.network)
        cluster.run(until=2.0)
        digests = digest_recipients(seen, cluster.config.gossip_interval)
        # The start-up heartbeat spoke on both links at t = 0, so the
        # first tick's digest waits for the second; then every tick.
        assert (0, 0) not in digests
        assert all(digests[(0, tick)] == {1, 2} for tick in range(1, 8))
        assert all(message.known is not None
                   for *_, message in gossips(seen))


class TestQuietGossip:
    def test_a_gossip_carries_a_push_a_want_or_a_due_digest(self):
        # n = 9: the leader digests to f = 4 of 8 peers a tick, each
        # follower to the leader, and a gossip goes nowhere else unless
        # it pushes something.
        n, fanout = 9, 4
        cluster = Cluster(ClusterConfig(n=n, seed=4))
        seen = tap(cluster.network)
        cluster.start()
        for j in range(20):
            cluster.sim.schedule(0.5 + 0.3 * j, cluster.submit, j % n, j)
        cluster.run(until=10.0)
        interval = cluster.config.gossip_interval
        sent = 0
        for when, src, dst, message in gossips(seen):
            sent += 1
            assert message.payloads or message.want \
                or message.known is not None
            if 0 not in (src, dst):
                # Between followers only pushes travel: to the
                # originator's second target.
                assert message.payloads and not message.want \
                    and message.known is None
        digests = digest_recipients(seen, interval)
        # Every peer hears the leader's digest within ⌈(n−1)/f⌉ = 2
        # ticks of its being due, plus one for a busy link's.
        window = math.ceil((n - 1) / fanout) + 1
        for tick in range(41 - window + 1):
            heard = set().union(*(digests.get((0, tick + i), set())
                                  for i in range(window)))
            assert heard == set(range(1, n))
        # (n − 1) follower digests and f leader digests a tick, plus
        # pushes: almost every follower-to-follower link stays quiet.
        assert sent < 41 * (n - 1 + fanout) * 5 // 4
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
    def test_n25_costs_at_most_16_messages_per_delivery(self):
        n = 25
        cluster = Cluster(ClusterConfig(n=n, seed=11))
        seen = tap(cluster.network)
        cluster.start()
        for j in range(400):                # 50 msg/s over t = 1 … 9
            cluster.sim.schedule(1.0 + 0.02 * j, cluster.submit, j % n, j)
        cluster.run(until=10.0)
        delivered = len(cluster.collector.first_delivery)
        assert delivered >= 390
        assert len(seen) / delivered <= 16
        assert [src for when, src, _, message in seen
                if message.type == Heartbeat.type and when > 1.0
                and src != 0] == []


class TestPushTargets:
    def test_a_lossless_run_pushes_each_payload_to_two_peers_no_want(self):
        # Followers push to the leader (0) and its successor (1), node 1
        # to 0 and 2: the leader always, the successor only if the
        # message is still unordered at a tick (a push beside a Promise
        # can get it ordered first).  Nothing is pulled, and the Accept
        # carries every payload to every other process.
        n, count = 5, 20
        cluster = build(n, seed=16)
        seen = tap(cluster.network)
        for j in range(count):
            cluster.sim.schedule(0.5 + 0.21 * j, cluster.submit,
                                 1 + j % (n - 1), f"m{j}")
        cluster.run(until=15.0)
        assert all(len(ab.deliver_sequence()) == count
                   for ab in cluster.abcasts.values())
        targets = {}
        for _, src, dst, message in gossips(seen):
            assert not message.want
            for payload in message.payloads:
                assert payload.id.sender == src
                targets.setdefault(payload.id, []).append(dst)
        assert len(targets) == count
        for mid, dsts in targets.items():
            successor = 2 if mid.sender == 1 else 1
            assert sorted(dsts) in ([0], [0, successor])
        accepted = sum(len(message.value) for *_, message in seen
                       if message.type == "paxos.accept")
        assert accepted == (n - 1) * count

    def test_under_ct_every_payload_crosses_each_link_once(self):
        # No leader hint: any process's proposal may be decided, so every
        # process gets every payload, once.
        n, count = 5, 20
        cluster = build(n, seed=16, protocol="ct")
        assert cluster.consensuses[0].leader_hint() is None
        seen = tap(cluster.network)
        for j in range(count):
            cluster.sim.schedule(0.5 + 0.21 * j, cluster.submit, j % n,
                                 f"m{j}")
        cluster.run(until=15.0)
        assert all(len(ab.deliver_sequence()) == count
                   for ab in cluster.abcasts.values())
        links = [(src, dst, payload.id) for _, src, dst, message
                 in gossips(seen) for payload in message.payloads]
        assert len(links) == len(set(links)) == (n - 1) * count
        assert not any(message.want for *_, message in gossips(seen))

    def test_after_a_leader_crash_the_successor_holds_what_was_due(self):
        cluster = build(5, seed=32)
        gate = ConsensusGate()
        seen = tap(cluster.network, drop=gate)
        due = [cluster.submit(i, f"from-{i}") for i in (2, 3, 4)]
        cluster.run(until=0.9)                  # pushed at the 0.75 tick
        pushed = {(dst, payload.id) for _, _, dst, message in gossips(seen)
                  for payload in message.payloads}
        assert pushed == {(dst, m.id) for m in due for dst in (0, 1)}
        cluster.crash(0)
        assert {m.id for m in due} <= set(cluster.abcasts[1].unordered)
        gate.closed = False
        cluster.run(until=20.0)
        assert cluster.consensuses[2].leader_hint() == 1
        for i in range(1, 5):
            assert sorted(m.payload for m in
                          cluster.abcasts[i].deliver_sequence()) \
                == ["from-2", "from-3", "from-4"]


class TestFollowers:
    def test_a_follower_with_nothing_to_propose_commits_on_the_decide(self):
        cluster = build(5, seed=33)
        seen = tap(cluster.network)
        message = cluster.submit(0, "m")     # the leader's: pushed to 1, 2
        follower, consensus = cluster.abcasts[4], cluster.consensuses[4]
        while consensus.decided_value(0) is None:
            assert follower.k == 0 and not follower.unordered
            cluster.run(until=cluster.sim.now + 0.001)
        # Committed within the millisecond the decision arrived in: the
        # sequencer woke on the decision itself, not on a later gossip
        # saying someone was ahead.
        assert follower.k == 1
        assert [m.id for m in follower.deliver_sequence()] == [message.id]
        # It proposed nothing, so it logged no proposal, and its one
        # acceptor record is not covered by a commit point (no Accept
        # followed it): a restart re-joins the round and pulls it.
        assert consensus.proposal_of(0) is None
        assert not any(carries(gossip, message.id)
                       for *_, gossip in gossips(seen, dst=4))
        cluster.crash(4)
        cluster.recover(4)
        follower = cluster.abcasts[4]
        cluster.run(until=cluster.sim.now + 0.001)
        assert follower.k == 0 and not follower.replay_complete
        cluster.run(until=cluster.sim.now + 5.0)
        assert follower.replay_complete and follower.replayed_rounds == 1
        assert [m.id for m in follower.deliver_sequence()] == [message.id]
        assert cluster.consensuses[4].proposal_of(0) is None

    def test_a_dropped_push_to_the_leader_is_pulled_from_the_next_digest(
            self):
        lost = []

        def first_push_3_to_0(src, dst, message):
            if (src, dst, message.type) == (3, 0, GossipMessage.type) \
                    and message.payloads and not lost:
                lost.append(cluster.sim.now)
                return True
            return False

        cluster = build(5, seed=34)
        gate = ConsensusGate(also=first_push_3_to_0)
        seen = tap(cluster.network, drop=gate)
        message = cluster.submit(3, "m")
        cluster.run(until=2.0)
        assert lost and message.id in cluster.abcasts[0].unordered
        interval = cluster.config.gossip_interval
        max_delay = cluster.config.network.max_delay
        digest_at = min(when for when, _, _, gossip
                        in gossips(seen, src=3, dst=0)
                        if message.id in (gossip.known or ()))
        asked_at = min(when for when, _, _, gossip
                       in gossips(seen, src=0, dst=3)
                       if message.id in gossip.want)
        # Served after the ask (a push re-armed by the leader's digest
        # may have gone already).
        served_at = min(when for when, _, _, gossip
                        in gossips(seen, src=3, dst=0, since=asked_at)
                        if carries(gossip, message.id) and when > asked_at)
        assert lost[0] < digest_at <= lost[0] + interval
        assert digest_at < asked_at <= digest_at + max_delay + interval
        assert asked_at < served_at <= asked_at + max_delay + interval
        # Only the leader asks.
        assert {src for _, src, _, gossip in gossips(seen)
                if gossip.want} == {0}
        gate.closed = False
        cluster.run(until=15.0)
        assert delivered_everywhere(cluster, "m")

    def test_every_followers_instance_floor_keeps_advancing(self):
        # Followers hear only the leader, so their watermark comes from
        # the leader's floor; without it they would never truncate.
        cluster = build(5, seed=35, protocol="alternative",
                        alt=AlternativeConfig(checkpoint_interval=1.0))
        for j in range(300):
            cluster.sim.schedule(0.5 + 0.1 * j, cluster.submit, j % 5, j)
        floors = []
        for until in (10.0, 20.0, 30.0):
            cluster.run(until=until)
            floors.append([cluster.consensuses[i].instance_floor
                           for i in range(5)])
        for before, after in zip(floors, floors[1:]):
            assert all(0 < b < a for b, a in zip(before, after))
        assert all(cluster.abcasts[i].instances_discarded > 0
                   for i in range(5))


class TestPushOnEvidence:
    def test_a_dropped_push_is_resent_after_the_peers_next_digest(self):
        lost = []

        def first_push_to_2(src, dst, message):
            if (src, dst, message.type) == (0, 2, GossipMessage.type) \
                    and message.payloads and not lost:
                lost.append((cluster.sim.now, message))
                return True
            return False

        cluster = build(9, seed=23)
        gate = ConsensusGate(also=first_push_to_2)
        seen = tap(cluster.network, drop=gate)
        message = cluster.submit(0, "m")       # the leader's: to 1 and 2
        cluster.run(until=3.0)
        (lost_at, dropped), = lost
        assert carries(dropped, message.id)
        pushes = [(when, dst) for when, _, dst, gossip
                  in gossips(seen, src=0) if carries(gossip, message.id)]
        # One copy per target link; the resend to 2 follows the first
        # digest 2 sent after the lost push.
        assert sorted(dst for _, dst in pushes) == [1, 2]
        resent, = [when for when, dst in pushes if dst == 2]
        digest_at = min(when for when, _, _, gossip
                        in gossips(seen, src=2, dst=0)
                        if when > lost_at and gossip.known is not None)
        interval = cluster.config.gossip_interval
        max_delay = cluster.config.network.max_delay
        assert digest_at < resent <= digest_at + max_delay + interval
        assert message.id in cluster.abcasts[2].unordered
        gate.closed = False
        cluster.run(until=15.0)
        assert delivered_everywhere(cluster, "m")

    def test_a_recovered_peer_is_repushed_after_its_first_digest(self):
        cluster = build(9, seed=24)
        gate = ConsensusGate()
        seen = tap(cluster.network, drop=gate)
        message = cluster.submit(0, "m")       # the leader's: to 1 and 2
        cluster.run(until=2.0)
        assert message.id in cluster.abcasts[2].unordered
        cluster.crash(2)                      # basic: Unordered is lost
        cluster.run(until=2.1)
        cluster.recover(2)
        cluster.run(until=5.0)
        assert message.id in cluster.abcasts[2].unordered
        repushed, = [when for when, _, _, gossip
                     in gossips(seen, src=0, dst=2, since=2.1)
                     if carries(gossip, message.id)]
        from_2 = gossips(seen, src=2, since=2.1)
        first_digest = min(when for when, _, _, gossip in from_2
                           if gossip.known is not None)
        interval = cluster.config.gossip_interval
        max_delay = cluster.config.network.max_delay
        assert first_digest < repushed <= first_digest + max_delay + interval
        assert not any(gossip.want for *_, gossip in from_2)
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
        assert cluster.abcasts[0]._due[1].push == {relayed.id}  # due now
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
        gate = ConsensusGate()
        gate.closed = False
        tap(cluster.network, drop=gate)
        ab = cluster.abcasts[0]
        message = cluster.submit(0, "m")
        cluster.run(until=0.1)
        assert set(ab._pushed) == {1, 2}        # the leader's next two
        assert all(message.id in ab._pushed[peer] for peer in (1, 2))
        while not ab.delivered_count():
            cluster.run(until=cluster.sim.now + 0.01)
        assert all(sent == {} for sent in ab._pushed.values())
        cluster.remove_node(2)
        cluster.run(until=cluster.sim.now + 5.0)
        assert cluster.views[0].members() == (0, 1, 3)
        assert 2 not in ab._pushed and 2 not in ab._peers
        gate.closed = True                      # keep the next one pushed
        later = cluster.submit(0, "later")
        cluster.run(until=cluster.sim.now + 0.3)
        assert {peer for peer, sent in ab._pushed.items()
                if later.id in sent} == {1, 3}


class TestRemovedNodeFallsSilent:
    def test_a_removed_node_beats_at_nobody_and_is_not_remembered(self):
        # The removed node stays up.  Nobody watches it and it watches
        # nobody: it must not come to trust itself, beat at the members
        # and have each of them re-record it from its gossip.
        cluster = build(4, seed=28)
        cluster.run(until=1.0)
        cluster.remove_node(2)
        while any(cluster.views[i].members() != (0, 1, 3)
                  for i in range(4)):
            cluster.run(until=cluster.sim.now + 0.01)
        seen = tap(cluster.network)
        removed_at = cluster.sim.now
        detector = cluster.nodes[2].get_component(HeartbeatDetector)
        omega = cluster.nodes[2].get_component(OmegaOracle)
        backlog = cluster.submit(2, "after-leave")
        while cluster.sim.now < removed_at + 30.0:
            cluster.run(until=cluster.sim.now + 0.05)
            assert all(2 not in cluster.abcasts[i]._peers
                       for i in (0, 1, 3))
            assert detector.candidates() == [] and not detector.trusts_self()
            assert omega.leader() == 0
        assert [message for _, src, _, message in seen
                if src == 2 and message.type == Heartbeat.type] == []
        # Its backlog still reaches the members and is ordered.
        assert all(backlog.id in {m.id for m in
                                  cluster.abcasts[i].deliver_sequence()}
                   for i in (0, 1, 3))
