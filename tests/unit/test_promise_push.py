"""A follower's new messages reach the leader with its Promise.

What a node submits is due at once to the process that binds the next
batch, and the endpoint's rider carries it on the frame that precedes
that bind — the ``Promise`` of the leader's ``Prepare``.  So a message
submitted before the leader's ``Prepare(k)`` is in round ``k``'s
``Accept``, instead of waiting for a gossip tick.  The tick still
repairs: a push lost with a crashed leader reaches the next one.
"""

from __future__ import annotations

from repro.core.messages import GossipMessage
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.live import LiveCluster
from repro.harness.verify import verify_run
from repro.runtime import wire
from repro.transport.network import NetworkConfig
from tests.conftest import tap

# Links of 10–20 ms: a Prepare and its Promise are back well inside the
# leader's 50 ms quorum poll, and well inside one 0.25 s gossip tick.
FAST = NetworkConfig(min_delay=0.01, max_delay=0.02)


def build(n=3, seed=3, protocol="basic"):
    cluster = Cluster(ClusterConfig(n=n, seed=seed, protocol=protocol,
                                    network=FAST))
    cluster.start()
    return cluster


def carries(message, mid):
    return message.type == GossipMessage.type \
        and any(payload.id == mid for payload in message.payloads)


def carries_any(message):
    return message.type == GossipMessage.type and bool(message.payloads)


def submit_pair(cluster, when, follower, tag):
    """A follower's message, then, a millisecond later, the leader's own,
    which makes the leader open a round at once."""
    cluster.sim.schedule(when, cluster.submit, follower, f"f-{tag}")
    cluster.sim.schedule(when + 0.001, cluster.submit, 0, f"l-{tag}")


def message_id(cluster, node_id, payload):
    return next(m.id for m in cluster.abcasts[node_id].unordered.values()
                if m.payload == payload)


class TestThePushRidesThePromise:
    def test_a_follower_message_is_in_the_round_its_prepare_opened(self):
        cluster = build()
        seen = tap(cluster.network)
        # 50 ms after a tick: the next one is 200 ms away.
        submit_pair(cluster, 0.3, 2, "a")
        cluster.run(until=0.3005)
        mid = message_id(cluster, 2, "f-a")
        cluster.run(until=3.0)
        prepare = next(m for when, src, _, m in seen
                       if src == 0 and m.type == "paxos.prepare"
                       and when >= 0.3)
        accept = next(m for _, src, _, m in seen
                      if src == 0 and m.type == "paxos.accept"
                      and m.k == prepare.k)
        assert mid in {message.id for message in accept.value}
        assert all(len(ab.deliver_sequence()) == 2
                   for ab in cluster.abcasts.values())

    def test_every_push_to_the_binder_follows_a_promise_at_once(self):
        cluster = build()
        seen = tap(cluster.network)
        for j in range(6):
            submit_pair(cluster, 0.3 + 0.5 * j, 1 + j % 2, j)
        cluster.run(until=5.0)
        assert all(len(ab.deliver_sequence()) == 12
                   for ab in cluster.abcasts.values())
        pushes = [i for i, (_, src, dst, m) in enumerate(seen)
                  if src != 0 and dst == 0 and m.type == GossipMessage.type
                  and m.payloads]
        assert len(pushes) == 6
        for i in pushes:
            # The push is the Promise's rider: one packet, which the tap
            # records rider first.
            when, src, dst, _ = seen[i]
            assert seen[i + 1][:3] == (when, src, dst)
            assert seen[i + 1][3].type == "paxos.promise"

    def test_on_live_the_push_and_its_promise_share_one_datagram(
            self, tmp_path):
        cluster = LiveCluster(ClusterConfig(n=3, seed=4, protocol="basic"),
                              str(tmp_path))
        datagrams = []
        transmit = cluster.network._transmit

        def tapped(src, dst, data):
            datagrams.append((src, dst, [
                "push" if carries_any(message) else message.type
                for _, message in wire.decode_datagram(data)]))
            transmit(src, dst, data)
        cluster.network._transmit = tapped
        with cluster:
            cluster.start()
            cluster.run_for(0.5)
            for j in range(6):
                cluster.runtime.schedule(0.3 * j, cluster.submit,
                                         1 + j % 2, f"f-{j}")
                cluster.runtime.schedule(0.3 * j, cluster.submit, 0,
                                         f"l-{j}")
            cluster.run_for(2.0)
            assert cluster.settle(within=10.0)
        riding = [types for src, dst, types in datagrams
                  if src != 0 and dst == 0 and "push" in types
                  and "paxos.promise" in types]
        # A tick can beat a Prepare by chance; most pushes ride one.
        assert len(riding) >= 3
        for types in riding:
            # The rider's frame comes first, so it is handled first.
            assert types.index("push") + 1 == types.index("paxos.promise")


class TestRepair:
    def test_a_push_lost_with_a_crashed_leader_reaches_the_next(self):
        cluster = build(seed=5)
        crashed = []

        def crash_before_accept(src, dst, message):
            # The leader dies in the turn it sends its first Accept: the
            # Accept never leaves, nor does anything else that instant.
            if src == 0 and message.type == "paxos.accept" and not crashed:
                crashed.append(cluster.sim.now)
                cluster.sim.schedule(0.0, cluster.crash, 0)
            return src == 0 and crashed == [cluster.sim.now]
        seen = tap(cluster.network, drop=crash_before_accept)
        submit_pair(cluster, 0.3, 2, "a")
        cluster.run(until=0.3005)
        mid = message_id(cluster, 2, "f-a")
        cluster.run(until=6.0)
        assert crashed
        to_old = [i for i, (_, src, dst, m) in enumerate(seen)
                  if src == 2 and dst == 0 and carries(m, mid)]
        assert len(to_old) == 1
        assert seen[to_old[0] + 1][3].type == "paxos.promise"
        assert any(src == 2 and dst == 1 and carries(m, mid)
                   for _, src, dst, m in seen)
        cluster.recover(0)
        cluster.run(until=12.0)
        assert cluster.settle(within=30.0)
        verify_run(cluster)
        for ab in cluster.abcasts.values():
            ids = [message.id for message in ab.deliver_sequence()]
            assert ids.count(mid) == 1
