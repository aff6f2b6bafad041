"""Gossip rides the frames already going to a peer; the tick speaks only
on a quiet link.

The endpoint asks the Atomic Broadcast layer's rider on every send, and
what a peer is due leaves in the same packet as that frame.  The gossip
tick sends a gossip of its own only to a peer that no frame reached for
a whole ``gossip_interval``, or to push the leader messages it lacks.  These tests pin down who sends what, and
that loss and crashes around a rider cost nothing but time.
"""

from __future__ import annotations

from repro.core.alternative import AlternativeConfig
from repro.core.messages import GossipMessage
from repro.fdetect.heartbeat import Heartbeat
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run
from repro.transport.message import Packet
from repro.transport.network import NetworkConfig

INTERVAL = 0.25


def build(n=3, seed=1, **kwargs):
    cluster = Cluster(ClusterConfig(n=n, seed=seed, **kwargs))
    cluster.start()
    return cluster


def record(cluster, drop=lambda src, dst, message: False):
    """Everything handed to the medium: ``(now, src, dst, gossip,
    riding)`` for each gossip, into the first list, and ``(now, src,
    dst, message)`` for each other frame, into the second.
    ``drop(src, dst, message)`` loses a whole packet."""
    gossips, frames, send = [], [], cluster.network.send

    def tapped(src, dst, message):
        now = cluster.sim.now
        riding = type(message) is Packet
        if riding:
            gossips.append((now, src, dst, message.rider, True))
            frames.append((now, src, dst, message.carrier))
        elif message.type == GossipMessage.type:
            gossips.append((now, src, dst, message, False))
        else:
            frames.append((now, src, dst, message))
        if not drop(src, dst, message):
            send(src, dst, message)
    cluster.network.send = tapped
    return gossips, frames


def load(cluster, rate, start, stop, nodes):
    count = int((stop - start) * rate)
    for j in range(count):
        cluster.sim.schedule(start + j / rate, cluster.submit,
                             nodes[j % len(nodes)], f"m{j}")
    return count


def carries(gossip, mid):
    return any(payload.id == mid for payload in gossip.payloads)


def delivered_once_everywhere(cluster, mid):
    return all([m.id for m in ab.deliver_sequence()].count(mid) == 1
               for ab in cluster.abcasts.values())


class TestQuietLinks:
    def test_a_busy_leader_link_carries_no_gossip_frame(self):
        cluster = build()
        gossips, _ = record(cluster)
        count = load(cluster, 120, 0.5, 4.5, (0, 1, 2))
        cluster.run(until=4.5)
        alone = [(src, dst, gossip) for when, src, dst, gossip, riding
                 in gossips if when >= 1.0 and not riding]
        # After warm-up Paxos crosses each leader-follower link every
        # instance, so no gossip goes alone from the leader, and a
        # follower's goes alone only at a tick that pushes the leader
        # messages it lacks: they set its next batch.
        assert not [src for src, _, _ in alone if src == 0]
        assert all(gossip.payloads for _, dst, gossip in alone if dst == 0)
        riders = [(src, dst) for when, src, dst, _, riding in gossips
                  if when >= 1.0 and riding]
        assert {(0, 1), (0, 2), (1, 0), (2, 0)} <= set(riders)
        # No Paxos frame crosses a follower-follower link, so the
        # successor's copy goes alone, at every tick.
        for tick in range(4, 18):
            for src, dst in ((1, 2), (2, 1)):
                assert any(when == tick * INTERVAL and gossip.payloads
                           and not riding
                           for when, s, d, gossip, riding in gossips
                           if (s, d) == (src, dst))
        assert cluster.settle(within=30.0)
        assert len(cluster.collector.first_delivery) == count

    def test_a_link_silent_for_an_interval_is_gossiped_at_the_next_tick(
            self):
        cluster = build()
        gossips, frames = record(cluster)
        load(cluster, 60, 0.5, 2.0, (0, 1, 2))
        cluster.run(until=5.0)
        for src, dst in ((1, 0), (0, 1)):
            # The last frame that was not a gossip of its own, once the
            # load is ordered: only the tick speaks on the link after it.
            last = max(when for when, s, d, _ in frames
                       if (s, d) == (src, dst))
            due = next(tick * INTERVAL for tick in range(40)
                       if tick * INTERVAL >= last + INTERVAL)
            assert any(when == due and not riding
                       for when, s, d, _, riding in gossips
                       if (s, d) == (src, dst))

    def test_the_rider_is_empty_when_nothing_is_due(self):
        cluster = build()
        cluster.run(until=1.0)
        ab = cluster.abcasts[1]
        ab._due.clear()
        assert ab._rider(0, Heartbeat()) is None
        assert ab._spoke[0] == cluster.sim.now


class TestLossAndCrashesAroundARider:
    def test_every_packet_with_a_rider_lost_the_quiet_tick_delivers(self):
        cluster = build(seed=7)
        lost = []

        def riding(src, dst, message):
            if type(message) is Packet:
                lost.append(message)
                return True
            return False
        gossips, _ = record(cluster, drop=riding)
        count = load(cluster, 20, 0.5, 3.5, (0, 1, 2))
        cluster.run(until=4.0)
        assert len(lost) > 10
        assert cluster.settle(within=120.0)
        verify_run(cluster)
        assert all(len(ab.deliver_sequence()) == count
                   for ab in cluster.abcasts.values())
        # Every gossip that rode was lost; what arrived went alone.
        assert sum(riding for *_, riding in gossips) == len(lost)
        assert any(not riding for *_, riding in gossips)

    def test_the_leader_takes_a_riding_push_and_crashes_before_binding(
            self):
        cluster = build(n=3, seed=5,
                        network=NetworkConfig(min_delay=0.01,
                                              max_delay=0.02))
        gossips, frames = record(cluster)
        leader = cluster.nodes[0]
        deliver, crashed = leader.deliver, []

        def take_then_crash(message, sender):
            taken = deliver(message, sender)
            if message.type == GossipMessage.type and sender == 2 \
                    and message.payloads and not crashed:
                # The Promise it rode arrives in this same turn; the
                # leader binds only at its next quorum poll.
                crashed.append(cluster.sim.now)
                cluster.sim.schedule(0.0, cluster.crash, 0)
            return taken
        leader.deliver = take_then_crash
        cluster.run(until=0.3)
        pushed = cluster.submit(2, "pushed")
        cluster.sim.schedule(0.001, cluster.submit, 0, "opens-the-round")
        cluster.run(until=6.0)
        assert crashed
        first = next(entry for entry in gossips
                     if entry[1:3] == (2, 0) and carries(entry[3], pushed.id))
        assert first[4], "the push rode a frame"
        # Crashed before binding: no Accept of the old leader carried it.
        assert not [message for _, src, _, message in frames
                    if src == 0 and message.type == "paxos.accept"
                    and (pushed in message.value
                         or pushed.id in message.value)]
        cluster.recover(0)
        assert cluster.settle(within=60.0)
        verify_run(cluster)
        assert delivered_once_everywhere(cluster, pushed.id)

    def test_a_follower_crashes_after_its_rider_and_pushes_again(self):
        cluster = build(
            n=3, seed=9, protocol="alternative",
            alt=AlternativeConfig(log_unordered=True),
            network=NetworkConfig(min_delay=0.01, max_delay=0.02))
        lost = []

        def lose_the_rider_and_crash(src, dst, message):
            if src == 2 and dst == 0 and type(message) is Packet \
                    and message.rider.payloads and not lost:
                lost.append(cluster.sim.now)
                cluster.sim.schedule(0.0, cluster.crash, 2)
                return True
            return False
        gossips, _ = record(cluster, drop=lose_the_rider_and_crash)
        load(cluster, 40, 0.5, 1.0, (0, 1))     # keeps the leader busy
        cluster.run(until=0.6)
        durable = cluster.submit(2, "durable")
        cluster.run(until=1.5)
        assert lost
        cluster.recover(2)
        ab = cluster.abcasts[2]
        assert durable.id in ab.unordered       # logged, so restored
        assert ab._pushed == {}                 # forgotten with the crash
        restart = cluster.sim.now
        cluster.run(until=restart + 3.0)
        digest_at = min(when for when, src, dst, gossip, _ in gossips
                        if (src, dst) == (0, 2) and when >= restart
                        and gossip.known is not None)
        repushed_at = min(when for when, src, dst, gossip, _ in gossips
                          if (src, dst) == (2, 0) and when >= restart
                          and carries(gossip, durable.id))
        assert repushed_at <= digest_at + INTERVAL
        assert cluster.settle(within=60.0)
        verify_run(cluster)     # each node delivers it once, in order
        assert durable.id in cluster.collector.first_delivery
