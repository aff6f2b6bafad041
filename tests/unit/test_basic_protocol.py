"""Unit tests for the basic Atomic Broadcast protocol (Figure 2)."""

from __future__ import annotations

import pytest

from repro.core.alternative import AlternativeConfig
from repro.core.messages import GossipMessage
from repro.errors import BroadcastError
from repro.harness.cluster import Cluster, ClusterConfig
from repro.transport.message import unpack
from repro.transport.network import NetworkConfig


def build(n=3, seed=0, loss=0.0, **kwargs):
    cluster = Cluster(ClusterConfig(
        n=n, seed=seed, protocol="basic",
        network=NetworkConfig(loss_rate=loss), **kwargs))
    cluster.start()
    return cluster


def sequences(cluster):
    return {i: [m.payload for m in ab.deliver_sequence()]
            for i, ab in cluster.abcasts.items()}


def tap(cluster, drop=lambda src, dst, message: False):
    """Record every ``(time, src, dst, message)`` handed to the medium
    (a packet's rider, then its carrier); messages ``drop`` selects are
    swallowed instead of sent."""
    sent = []
    send = cluster.network.send

    def tapped(src, dst, message):
        kept = []
        for part in unpack(message):
            sent.append((cluster.sim.now, src, dst, part))
            if not drop(src, dst, part):
                kept.append(part)
        if len(kept) == 2:
            send(src, dst, message)
        elif kept:
            send(src, dst, kept[0])
    cluster.network.send = tapped
    return sent


def of_type(sent, tag):
    return [entry for entry in sent if entry[3].type == tag]


def no_consensus(src, dst, message):
    """Keep every message Unordered: nothing is ever decided."""
    return message.type.startswith("paxos.")


class TestOrdering:
    def test_single_broadcast_delivered_everywhere(self):
        cluster = build()
        cluster.sim.schedule(0.5, cluster.submit, 0, "hello")
        cluster.run(until=10.0)
        assert all(seq == ["hello"] for seq in sequences(cluster).values())

    def test_identical_delivery_order(self):
        cluster = build(seed=1)
        for i in range(3):
            for j in range(5):
                cluster.sim.schedule(0.5 + 0.1 * j + 0.03 * i,
                                     cluster.submit, i, f"p{i}m{j}")
        cluster.run(until=20.0)
        seqs = sequences(cluster)
        assert len(seqs[0]) == 15
        assert seqs[0] == seqs[1] == seqs[2]

    def test_batch_order_follows_deterministic_rule(self):
        """Messages decided in one round are delivered sorted by id."""
        cluster = build()
        # Submit from all nodes at the same instant: they gossip into one
        # round's proposal at the eventual proposer.
        for i in (2, 0, 1):
            cluster.sim.schedule(0.5, cluster.submit, i, f"from-{i}")
        cluster.run(until=15.0)
        seq = sequences(cluster)[0]
        # Within any single round's batch the sender order is ascending;
        # across the whole run each sender's own messages stay FIFO.
        assert sorted(seq) == ["from-0", "from-1", "from-2"]

    def test_no_duplicates_despite_duplicating_network(self):
        cluster = Cluster(ClusterConfig(
            n=3, seed=2, protocol="basic",
            network=NetworkConfig(duplicate_rate=0.5)))
        cluster.start()
        for j in range(10):
            cluster.sim.schedule(0.5 + 0.2 * j, cluster.submit, 0, f"m{j}")
        cluster.run(until=20.0)
        for seq in sequences(cluster).values():
            assert len(seq) == len(set(seq)) == 10

    def test_rounds_advance_only_with_work(self):
        """No unnecessary consensus instances without traffic (§4.2)."""
        cluster = build()
        cluster.run(until=10.0)
        assert all(ab.k == 0 for ab in cluster.abcasts.values())
        assert all(consensus.logged_instances() == {}
                   for consensus in cluster.consensuses.values())

    def test_delivery_over_lossy_network(self):
        cluster = build(seed=3, loss=0.25)
        for j in range(8):
            cluster.sim.schedule(0.5 + 0.3 * j, cluster.submit, 1, f"m{j}")
        cluster.run(until=60.0)
        seqs = sequences(cluster)
        assert seqs[0] == seqs[1] == seqs[2]
        assert len(seqs[0]) == 8


class TestBroadcastSemantics:
    def test_blocking_broadcast_returns_after_ordering(self):
        cluster = build()
        done = []

        def client():
            message = yield from cluster.abcasts[0].broadcast("blocked")
            done.append((cluster.sim.now, message.payload))

        cluster.nodes[0].spawn(client(), "client")
        cluster.run(until=15.0)
        assert len(done) == 1
        assert done[0][1] == "blocked"
        assert done[0][0] > 0  # it took at least one consensus round
        assert "blocked" in sequences(cluster)[0]

    def test_submit_on_down_node_rejected(self):
        cluster = build()
        cluster.nodes[0].crash()
        with pytest.raises(BroadcastError):
            cluster.abcasts[0].submit("nope")

    def test_message_ids_unique_across_recoveries(self):
        """The durable incarnation counter prevents id reuse (§2.2)."""
        cluster = build()
        cluster.run(until=0.1)
        first = cluster.abcasts[0].submit("before")
        cluster.nodes[0].crash()
        cluster.run(until=1.0)
        cluster.nodes[0].recover()
        cluster.run(until=1.1)
        second = cluster.abcasts[0].submit("after")
        assert first.id != second.id
        assert second.id.incarnation > first.id.incarnation

    def test_delivered_count_and_sequence_agree(self):
        cluster = build()
        for j in range(4):
            cluster.sim.schedule(0.5 + 0.2 * j, cluster.submit, 0, j)
        cluster.run(until=15.0)
        ab = cluster.abcasts[1]
        assert ab.delivered_count() == len(ab.deliver_sequence()) == 4


class TestGossip:
    def test_gossip_disseminates_unordered_messages(self):
        """A message submitted at one node is proposed by all good nodes
        even if the submitter never leads consensus."""
        cluster = build(seed=4)
        cluster.sim.schedule(0.5, cluster.submit, 2, "from-follower")
        cluster.run(until=10.0)
        assert all(seq == ["from-follower"]
                   for seq in sequences(cluster).values())

    def test_gossip_advances_lagging_round_counter(self):
        cluster = build(seed=5)
        cluster.run(until=1.0)
        cluster.nodes[2].crash()
        for j in range(5):
            cluster.sim.schedule(1.5 + 0.4 * j, cluster.submit, 0, f"m{j}")
        cluster.run(until=10.0)
        assert cluster.abcasts[0].k >= 1
        cluster.nodes[2].recover()
        cluster.run(until=40.0)
        assert cluster.abcasts[2].k == cluster.abcasts[0].k
        assert sequences(cluster)[2] == sequences(cluster)[0]


class TestDigestGossip:
    """Payloads go to the leader and its successor, once per link; the
    rest is ids, and the Accept carries the batch to everyone else."""

    def test_crashed_originator_is_pulled_from_the_one_peer_it_reached(self):
        """Nobody relays blindly: a message whose originator died after
        reaching only the leader's successor reaches the leader through
        the successor's digest and the leader's ``want``."""
        cluster = build(n=5, seed=11)
        sent = tap(cluster, drop=lambda src, dst, message:
                   src == 4 and dst != 1 and message.type == "ab.gossip")
        assert cluster.consensuses[3].omega.leader() == 0
        cluster.sim.schedule(0.6, cluster.submit, 4, "orphan")
        cluster.run(until=0.9)      # one tick (0.75) has pushed it to 1
        orphan, = cluster.abcasts[1].unordered
        cluster.nodes[4].crash()
        assert all(orphan not in cluster.abcasts[i].unordered
                   for i in (0, 2, 3))
        cluster.run(until=20.0)
        assert all(sequences(cluster)[i] == ["orphan"] for i in range(4))
        assert not any(cluster.abcasts[i].has_backlog() for i in range(4))
        gossip = of_type(sent, "ab.gossip")
        pulls = [(src, dst) for _, src, dst, m in gossip if orphan in m.want]
        assert pulls and set(pulls) == {(0, 1)}     # only the leader asks
        carriers = {src for _, src, _, m in gossip
                    if any(a.id == orphan for a in m.payloads)}
        assert carriers == {1, 4}

    def test_peer_recovery_resets_what_we_believe_it_holds(self):
        cluster = build(seed=12)
        sent = tap(cluster, drop=no_consensus)
        message = cluster.submit(0, "kept-unordered")

        def pushed_to_2(since, until):
            return [t for t, src, dst, m in of_type(sent, "ab.gossip")
                    if src == 0 and dst == 2 and since <= t < until
                    and message in m.payloads]

        cluster.run(until=2.0)
        assert pushed_to_2(0.0, 1.0)            # pushed ...
        assert not pushed_to_2(1.0, 2.0)        # ... until 2's digest acked
        cluster.nodes[2].crash()                # basic: Unordered is lost
        cluster.nodes[2].recover()
        cluster.run(until=3.0)
        assert pushed_to_2(2.0, 3.0)            # its empty digest re-armed us
        assert message.id in cluster.abcasts[2].unordered

    def test_reordered_stale_digest_is_corrected_by_the_next(self):
        cluster = build(seed=13)
        sent = tap(cluster, drop=no_consensus)
        cluster.nodes[2].crash()                # only this test speaks for 2
        message = cluster.submit(0, "m")
        ab = cluster.abcasts[0]

        def payloads_for_2():
            del sent[:]
            ab._spoke.clear()   # each call is a tick on a quiet link
            ab._gossip_once()
            (_, _, _, gossip), = [e for e in sent if e[2] == 2]
            return gossip.payloads

        assert payloads_for_2() == {message}
        # A digest 2 sent before crashing overtakes nothing any more: it
        # arrives late and claims 2 still holds the message ...
        ab._on_gossip(GossipMessage(0, frozenset(), 0,
                                    known=frozenset({message.id})), sender=2)
        assert payloads_for_2() == frozenset()
        # ... and 2's next digest replaces it (knowledge never accumulates),
        # re-arming the push once it was sent a gossip interval after it.
        cluster.run(until=cluster.sim.now + ab.gossip_interval)
        ab._on_gossip(GossipMessage(0, frozenset(), 0), sender=2)
        assert payloads_for_2() == {message}

    def test_ids_off_the_live_wire_are_plain_tuples(self):
        cluster = build(seed=14)
        tap(cluster, drop=no_consensus)
        held = cluster.submit(0, "held")
        ab = cluster.abcasts[0]
        ab._on_gossip(GossipMessage(
            0, frozenset(), 0, known=frozenset({tuple(held.id), (1, 1, 7)}),
            want=frozenset({tuple(held.id)})), sender=1)
        assert ab._peers[1].missing == {(1, 1, 7)}
        assert ab._due[1].push == {held.id}

    def test_peers_outside_the_group_are_forgotten(self):
        cluster = build(seed=15)
        ab = cluster.abcasts[0]
        ab._on_gossip(GossipMessage(0, frozenset(), 0), sender=99)
        assert 99 not in ab._peers      # never recorded: not a member
        cluster.run(until=1.0)
        assert set(ab._peers) == {1, 2}
        cluster.nodes[0].crash()
        assert ab._peers == {}

    def test_a_payload_is_carried_o_n_times_not_ticks_times_n_squared(self):
        n, count = 5, 20
        cluster = build(n=n, seed=16)
        sent = tap(cluster)
        for j in range(count):
            cluster.sim.schedule(0.5 + 0.21 * j, cluster.submit,
                                 1 + j % (n - 1), f"m{j}")
        cluster.run(until=15.0)
        assert all(len(seq) == count for seq in sequences(cluster).values())
        gossip = of_type(sent, "ab.gossip")
        assert all(src != dst for _, src, dst, _ in gossip)   # not to self
        copies = sum(len(m.payloads) for _, _, _, m in gossip)
        accepted = sum(len(m.value) for _, _, _, m
                       in of_type(sent, "paxos.accept"))
        # Lossless: gossip takes each payload to the leader once — on
        # the next frame to it, or at the tick on a quiet link — and to
        # the leader's successor only if it is still unordered at a
        # tick; the Accept takes it to every other process.  So it
        # crosses each link at most once: n or n + 1 copies.  Pushing to
        # every peer as well cost 2n − 1; whole-set gossip from every
        # holder was ~n*n copies per tick a message stayed unordered.
        links = [(dst, p.id) for _, _, dst, m in gossip for p in m.payloads]
        assert len(set(links)) == len(links)
        assert sum(dst == 0 for dst, _ in links) == count
        assert count <= copies <= 2 * count
        assert accepted == (n - 1) * count
        assert not any(m.want for _, _, _, m in gossip)       # lossless


class TestSingleDecide:
    """A decision is sent once, to every other process; a lost copy is
    pulled at the gossip tick by whoever learns from gossip that it fell
    behind."""

    def test_lossless_run_emits_n_decides_per_instance(self):
        n = 5
        cluster = build(n=n, seed=17)
        sent = tap(cluster)
        for j in range(10):
            cluster.sim.schedule(0.5 + 0.3 * j, cluster.submit, j % n,
                                 f"m{j}")
        cluster.run(until=15.0)
        instances = cluster.abcasts[0].k
        assert instances >= 3
        decides = of_type(sent, "paxos.decide")
        assert len([e for e in decides if e[1] == 0]) == \
            (n - 1) * instances
        assert all(dst != 0 for _, src, dst, _ in decides if src == 0)
        # The rest answer an Accept that a Decide overtook: a reply to
        # the leader, never a second fan-out.
        assert all(dst == 0 for _, src, dst, _ in decides if src != 0)
        assert len(decides) <= n * instances
        assert not of_type(sent, "paxos.query")

    def test_duplicated_accepted_does_not_decide_again(self):
        n = 3
        cluster = Cluster(ClusterConfig(
            n=n, seed=18, protocol="basic",
            network=NetworkConfig(duplicate_rate=0.9)))
        cluster.start()
        sent = tap(cluster)
        for j in range(6):
            cluster.sim.schedule(0.5 + 0.4 * j, cluster.submit, 0, f"m{j}")
        cluster.run(until=15.0)
        instances = cluster.abcasts[0].k
        # Replies to stale traffic go back to the leader; the copies
        # addressed to followers are the multisend's alone.
        to_followers = [e for e in of_type(sent, "paxos.decide")
                        if e[2] != 0]
        assert len(to_followers) == (n - 1) * instances

    def test_lost_decide_is_pulled_within_two_gossip_intervals(self):
        config = ClusterConfig(n=3, seed=19, protocol="alternative")
        cluster = Cluster(config)
        cluster.start()
        lost = []

        def first_decide_to_2(src, dst, message):
            if message.type == "paxos.decide" and dst == 2 and not lost:
                lost.append(cluster.sim.now)
                return True
            return False

        sent = tap(cluster, drop=first_decide_to_2)
        cluster.sim.schedule(0.5, cluster.submit, 0, "m")
        repaired = None
        while repaired is None and cluster.sim.now < 10.0:
            cluster.run(until=cluster.sim.now + 0.01)
            if cluster.abcasts[2].delivered_count():
                repaired = cluster.sim.now
        assert lost and repaired is not None
        round_trip = 2 * config.network.max_delay
        assert repaired - lost[0] <= 2 * config.gossip_interval + round_trip
        assert repaired - lost[0] < 2 * config.attempt_timeout
        queries = of_type(sent, "paxos.query")
        assert [(src, m.k) for _, src, _, m in queries] == [(2, 0)]
        assert queries[0][2] in (0, 1)                  # unicast, to a peer
        assert not of_type(sent, "ab.state")


class TestReplay:
    def test_recovery_rebuilds_agreed_queue(self):
        cluster = build(seed=6)
        for j in range(6):
            cluster.sim.schedule(0.5 + 0.3 * j, cluster.submit, 0, f"m{j}")
        cluster.run(until=15.0)
        before = sequences(cluster)[1]
        cluster.nodes[1].crash()
        cluster.run(until=16.0)
        cluster.nodes[1].recover()
        cluster.run(until=45.0)
        assert sequences(cluster)[1][:len(before)] == before
        assert cluster.abcasts[1].replayed_rounds > 0

    def test_property_p4_replay_proposes_logged_values(self):
        """After recovery the node re-proposes exactly its logged values."""
        cluster = build(seed=7)
        for j in range(4):
            cluster.sim.schedule(0.5 + 0.3 * j, cluster.submit, 1, f"m{j}")
        cluster.run(until=15.0)
        logged_before = cluster.consensuses[1].logged_instances()
        cluster.nodes[1].crash()
        cluster.nodes[1].recover()
        cluster.run(until=45.0)
        logged_after = cluster.consensuses[1].logged_instances()
        for k, value in logged_before.items():
            assert logged_after[k] == value

    def test_minimal_logging_only_consensus_writes(self):
        """Section 4.3: AB performs no per-round writes of its own; the
        only 'ab' writes are one incarnation bump per start."""
        cluster = build(seed=8)
        for j in range(10):
            cluster.sim.schedule(0.5 + 0.2 * j, cluster.submit, 0, f"m{j}")
        cluster.run(until=30.0)
        for node in cluster.nodes.values():
            by_prefix = node.storage.metrics.ops_by_prefix
            assert by_prefix.get("ab", 0) == 1  # the incarnation bump
            assert by_prefix.get("paxos", 0) > 0

    def test_replay_is_deaf_to_new_rounds_until_caught_up(self):
        """A recovering node finishes replay before joining new rounds;
        its final queue still matches everyone (liveness + safety)."""
        cluster = build(seed=9)
        for j in range(5):
            cluster.sim.schedule(0.5 + 0.3 * j, cluster.submit, 0, f"a{j}")
        cluster.run(until=12.0)
        cluster.nodes[2].crash()
        for j in range(5):
            cluster.sim.schedule(12.5 + 0.3 * j, cluster.submit, 0, f"b{j}")
        cluster.run(until=20.0)
        cluster.nodes[2].recover()
        cluster.run(until=60.0)
        seqs = sequences(cluster)
        assert seqs[2] == seqs[0]
        assert len(seqs[2]) == 10


class TestCatchUp:
    """A node that recovers behind logs no proposal for the rounds it
    missed, and pulls each one at once instead of waiting for a gossip
    tick."""

    @staticmethod
    def recover_behind(protocol, seed, rounds, network=None, **kwargs):
        """Node 2 misses ``rounds`` single-message rounds and recovers;
        returns the cluster, the leader's round then, and every value
        node 2 logs as a new proposal from then on, as ``(k, value)``."""
        cluster = Cluster(ClusterConfig(
            n=3, seed=seed, protocol=protocol,
            network=network or NetworkConfig(), **kwargs))
        cluster.start()
        cluster.run(until=1.0)
        cluster.nodes[2].crash()
        for j in range(rounds):
            cluster.sim.schedule(0.1 + 0.4 * j, cluster.submit, 0, f"m{j}")
        cluster.run(until=cluster.sim.now + 0.4 * rounds + 1.0)
        consensus = cluster.consensuses[2]
        logged = []
        propose = consensus.propose

        def recording(k, value):
            if consensus.proposal_of(k) is None:
                logged.append((k, value))
            propose(k, value)
        consensus.propose = recording
        cluster.nodes[2].recover()
        return cluster, cluster.abcasts[0].k, logged

    @pytest.mark.parametrize("protocol", ["basic", "alternative"])
    def test_a_recovering_node_proposes_nothing_for_decided_rounds(
            self, protocol):
        alt = AlternativeConfig(delta=None) if protocol == "alternative" \
            else None
        cluster, leader_k, logged = self.recover_behind(protocol, 23, 12,
                                                        alt=alt)
        ab = cluster.abcasts[2]
        back = ab.k
        # Once it has heard that it is behind, its own submission sits
        # in Unordered while it catches up: no round it knows decided
        # may carry it.
        deadline = cluster.sim.now + 5.0
        while ab.gossip_k <= ab.k and cluster.sim.now < deadline:
            cluster.run(until=cluster.sim.now + 0.001)
        assert ab.gossip_k > ab.k
        cluster.submit(2, "late")
        cluster.run(until=cluster.sim.now + 10.0)
        # It binds no proposal for a round it missed: the box asks for
        # one only when an attempt of its own needs it, and a follower
        # learns those rounds from their decisions.
        missed = [(k, value) for k, value in logged if k < leader_k]
        assert leader_k - back >= 10
        assert missed == []
        assert cluster.settle(within=30.0)
        delivered = cluster.app(2).payloads()
        assert "late" in delivered and delivered == cluster.app(0).payloads()

    def test_catch_up_costs_round_trips_not_ticks(self):
        network = NetworkConfig(min_delay=0.01, max_delay=0.02)
        cluster, leader_k, _ = self.recover_behind("basic", 29, 24,
                                                   network=network)
        config, ab = cluster.config, cluster.abcasts[2]
        replayed = caught_up = None
        while caught_up is None and cluster.sim.now < 60.0:
            cluster.run(until=cluster.sim.now + 0.005)
            if replayed is None and ab.replay_complete:
                replayed, m = cluster.sim.now, leader_k - ab.k
            if ab.k >= leader_k - 1:
                caught_up = cluster.sim.now
        round_trip = 2 * network.max_delay
        assert replayed is not None and caught_up is not None
        assert m >= 20
        assert caught_up - replayed <= \
            m * round_trip + config.gossip_interval
        # The last round is one behind, where the ordinary tick-driven
        # repair takes over: within two ticks and a round trip.
        cluster.run(until=caught_up + 2 * config.gossip_interval
                    + round_trip)
        assert ab.k == leader_k
