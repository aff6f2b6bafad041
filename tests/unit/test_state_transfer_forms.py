"""The two forms of the ``state`` message (Section 5.3).

*Missed rounds* — the decided batches of the rounds the peer said it had
not finished, committed through the ordinary ⊕ — is what a lagging peer
gets; the *whole queue* travels only when a needed decision is gone.
"""

from __future__ import annotations

import random

from repro.core.agreed import AgreedQueue
from repro.core.alternative import AlternativeConfig
from repro.core.ids import MessageId
from repro.core.messages import AppMessage, StateMessage
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run
from repro.runtime import wire, wirefuzz
from repro.transport.message import unpack
from repro.transport.network import NetworkConfig
from tests.conftest import tap


def build(seed=0, n=3, loss=0.0, delta=2, interval=1.0):
    cluster = Cluster(ClusterConfig(
        n=n, seed=seed, protocol="alternative",
        network=NetworkConfig(loss_rate=loss),
        alt=AlternativeConfig(checkpoint_interval=interval, delta=delta)))
    cluster.start()
    return cluster


def pump(cluster, count, node=0, gap=0.1):
    for j in range(count):
        cluster.sim.schedule(0.05 + gap * j, cluster.submit, node,
                             ("m", cluster.sim.now, j))


def tap_state(cluster):
    """Every ``ab.state`` handed to the network, as (src, dst, message)."""
    sent = []
    send = cluster.network.send

    def tapped(src, dst, message):
        sent.extend((src, dst, part) for part in unpack(message)
                    if part.type == StateMessage.type)
        send(src, dst, message)
    cluster.network.send = tapped
    return sent


def finish(cluster, limit=300.0):
    assert cluster.settle(within=limit)
    return verify_run(cluster)


def outage(cluster, victim=2, messages=20, down_for=4.0):
    """``victim`` misses ``messages`` messages and comes back."""
    cluster.run(until=1.0)
    cluster.nodes[victim].crash()
    pump(cluster, messages)
    cluster.run(until=cluster.sim.now + down_for)
    cluster.nodes[victim].recover()


def missed_rounds_for(cluster, sender, receiver, from_k=None):
    """What ``sender`` would send ``receiver`` now, in missed-rounds form."""
    source, target = cluster.abcasts[sender], cluster.abcasts[receiver]
    from_k = target.k if from_k is None else from_k
    batches = source._missed_batches(from_k)
    assert batches is not None
    return StateMessage(source.k - 1,
                        view_plain=source.view_manager.to_plain(),
                        from_k=from_k, batches=batches)


class TestMissedRoundsForm:
    def test_a_lagging_peer_gets_the_rounds_it_missed(self):
        cluster = build(seed=41)
        sent = tap_state(cluster)
        outage(cluster)
        restores = []
        rsm = cluster.rsms[2]
        on_restore = rsm.on_restore
        rsm.on_restore = lambda state: (restores.append(state),
                                        on_restore(state))
        k_back = cluster.abcasts[2].k
        cluster.run(until=cluster.sim.now + 0.01)   # recovery's own restore
        restores.clear()
        stream = rsm.stream
        before = len(cluster.app(2).ids())
        cluster.run(until=cluster.sim.now + 5.0)
        ab = cluster.abcasts[2]
        assert ab.state_transfers_adopted >= 1 and ab.rounds_skipped > 0
        # Every message sent was the missed-rounds form, reaching back
        # to the round the peer advertised and no further.
        assert sent and all(dst == 2 and message.from_k is not None
                            and message.agreed_plain is None
                            and len(message.batches)
                            == message.k + 1 - message.from_k
                            for _, dst, message in sent)
        assert min(message.from_k for _, _, message in sent) == k_back
        # Adopted without a restore, on the same delivery stream, each
        # missed message exactly once.
        assert restores == [] and rsm.stream == stream
        ids = cluster.app(2).ids()
        assert len(ids) == before + 20 and len(set(ids)) == len(ids)
        finish(cluster)
        assert ids == cluster.app(0).ids()[:len(ids)]

    def test_costs_what_was_missed_not_what_is_held(self):
        cluster = build(seed=42)
        sent = tap_state(cluster)
        pump(cluster, 60, gap=0.05)       # history the victim already has
        cluster.run(until=5.0)
        cluster.nodes[2].crash()
        pump(cluster, 5, gap=0.4)         # a round each: more than Δ
        cluster.run(until=cluster.sim.now + 3.0)
        cluster.nodes[2].recover()
        cluster.run(until=cluster.sim.now + 5.0)
        assert sent
        whole = StateMessage(0, cluster.abcasts[0].agreed.to_plain())
        assert all(message.frame_size() * 4 < whole.frame_size()
                   for _, _, message in sent)
        finish(cluster)

    def test_batches_below_the_receivers_round_are_skipped(self):
        cluster = build(seed=43, delta=None)
        outage(cluster)
        cluster.run(until=cluster.sim.now + 0.01)
        ab = cluster.abcasts[2]
        # Let the victim catch up two rounds by itself first, so the
        # message reaches further back than it needs.
        from_k = ab.k
        deadline = cluster.sim.now + 1.5
        while ab.k < from_k + 2 and cluster.sim.now < deadline:
            cluster.run(until=cluster.sim.now + 0.001)
        assert from_k < ab.k < cluster.abcasts[0].k
        held = cluster.app(2).ids()
        ab._on_state(missed_rounds_for(cluster, 0, 2, from_k=from_k),
                     sender=0)
        assert ab.k == cluster.abcasts[0].k
        ids = cluster.app(2).ids()
        assert ids[:len(held)] == held and len(set(ids)) == len(ids)
        assert ids == cluster.app(0).ids()
        finish(cluster)

    def test_message_that_does_not_connect_is_ignored(self):
        """The receiver recovered further back after the sender read its
        gossip: the batches start past its round."""
        cluster = build(seed=44, delta=None)
        outage(cluster)
        cluster.run(until=cluster.sim.now + 0.01)
        ab = cluster.abcasts[2]
        k, held = ab.k, cluster.app(2).ids()
        ab._on_state(missed_rounds_for(cluster, 0, 2, from_k=k + 1),
                     sender=0)
        assert (ab.k, cluster.app(2).ids()) == (k, held)
        assert ab.state_transfers_adopted == 0
        assert ab.gossip_k >= cluster.abcasts[0].k - 1   # told it lags
        # The next one reaches back far enough, and adopts.
        ab._on_state(missed_rounds_for(cluster, 0, 2), sender=0)
        assert ab.k == cluster.abcasts[0].k
        assert ab.state_transfers_adopted == 1
        finish(cluster)

    def test_message_that_does_not_connect_names_the_peer_ahead(self):
        """The sender is ahead, as its gossip would say, so it is where
        the receiver's next decision pull goes (raising ``gossip-k``
        alone once addressed that pull to id -1)."""
        cluster = build(seed=44, delta=None)
        outage(cluster)
        cluster.run(until=cluster.sim.now + 0.01)
        ab = cluster.abcasts[2]
        assert ab.gossip_k <= ab.k      # nobody ahead heard from yet
        ab._on_state(missed_rounds_for(cluster, 0, 2, from_k=ab.k + 1),
                     sender=1)
        assert ab.gossip_k > ab.k and ab._ahead_peer == 1
        cluster.run(until=cluster.sim.now + 1.0)
        finish(cluster)

    def test_duplicate_and_stale_messages_are_idempotent(self):
        cluster = build(seed=45, delta=None)
        outage(cluster)
        cluster.run(until=cluster.sim.now + 0.01)
        ab = cluster.abcasts[2]
        message = missed_rounds_for(cluster, 0, 2)
        ab._on_state(message, sender=0)
        k, ids = ab.k, cluster.app(2).ids()
        ab._on_state(message, sender=0)               # duplicate
        ab._on_state(missed_rounds_for(cluster, 0, 2, from_k=k - 2),
                     sender=1)                        # nothing new in it
        assert (ab.k, cluster.app(2).ids()) == (k, ids)
        assert ab.state_transfers_adopted == 1
        finish(cluster)


class TestWholeQueueFallbacks:
    def test_a_joiner_gets_the_whole_queue(self):
        cluster = build(seed=46)
        sent = tap_state(cluster)
        pump(cluster, 12)
        cluster.run(until=4.0)
        joiner = cluster.add_node()
        cluster.run(until=10.0)
        to_joiner = [message for _, dst, message in sent if dst == joiner]
        assert to_joiner and all(message.from_k is None
                                 and message.agreed_plain is not None
                                 for message in to_joiner)
        assert cluster.abcasts[joiner].state_transfers_adopted >= 1
        finish(cluster)

    def test_a_peer_below_the_gc_floor_gets_the_whole_queue(self):
        cluster = build(seed=47)
        sent = tap_state(cluster)
        pump(cluster, 20)
        cluster.run(until=8.0)
        ab = cluster.abcasts[0]
        assert cluster.consensuses[0].decided_value(0) is None   # GC'd
        assert ab._missed_batches(0) is None
        ab._peer_behind(1, 0)
        (_, dst, message), = sent
        assert dst == 1 and message.from_k is None
        assert AgreedQueue.from_plain(message.agreed_plain).tracker \
            .to_plain() == ab.agreed.tracker.to_plain()

    def test_a_sender_that_skipped_the_round_sends_the_whole_queue(self):
        cluster = build(seed=48, interval=None)     # no GC in the way
        outage(cluster)
        cluster.run(until=cluster.sim.now + 5.0)
        skipper = cluster.abcasts[2]
        assert skipper.rounds_skipped > 0
        skipped_round = skipper.k - 2
        assert cluster.consensuses[2].decided_value(skipped_round) is None
        sent = tap_state(cluster)
        skipper._peer_behind(1, skipped_round - skipper.config.delta)
        (_, _, message), = sent
        assert message.from_k is None and message.agreed_plain is not None
        # Rounds it did decide itself it can still hand over.
        pump(cluster, 6)
        cluster.run(until=cluster.sim.now + 2.0)
        assert skipper._missed_batches(skipper.k - 1) is not None
        finish(cluster)


class TestADriverTheTransferStrands:
    def test_the_gc_stops_it_and_no_promise_rises(self):
        """The victim re-joins its old round on recovery, but no decision
        of an old round reaches it by consensus: the missed-rounds state
        carries it past.  Its checkpoint then lifts the watermark, the GC
        raises its floor over the round its driver waits in, and the
        driver must leave — not query peers that have forgotten the
        round, nor run an attempt above the leader's ballot."""
        cluster = build(seed=40)
        cluster.run(until=1.0)
        cluster.nodes[2].crash()
        pump(cluster, 20)
        cluster.run(until=cluster.sim.now + 4.0)
        old = cluster.abcasts[0].k
        seen = tap(cluster.network, drop=lambda src, dst, message: (
            dst == 2 and message.type.startswith("paxos.")
            and message.k < old))
        cluster.nodes[2].recover()
        victim = cluster.consensuses[2]
        stranded = []
        while not stranded and cluster.sim.now < 20.0:
            driving = set(victim._drivers)
            cluster.run(until=cluster.sim.now + 0.01)
            stranded = [k for k in driving if k < victim.instance_floor]
        assert stranded and cluster.abcasts[2].rounds_skipped > 0
        floor, mark = victim.instance_floor, len(seen)
        promised = [c._promised_ballot() for c in cluster.consensuses.values()]
        cluster.run(until=cluster.sim.now + 10.0)
        assert not [k for k in victim._drivers if k < floor]
        assert not [message for _, src, _, message in seen[mark:]
                    if src == 2 and message.type.startswith("paxos.")
                    and message.k < floor]
        assert [c._promised_ballot()
                for c in cluster.consensuses.values()] == promised
        finish(cluster)


def batch(*seqs):
    return frozenset(AppMessage(MessageId(1, 1, seq), f"p{seq}")
                     for seq in seqs)


class TestOnTheWire:
    def forms(self):
        queue = AgreedQueue()
        queue.append_batch(batch(1, 2))
        queue.compact(((((1, 1, 1), "p1"),), 7))
        queue.append_batch(batch(3))
        view = (2, (0, 1, 2), ((1, 1, 9),))
        return (StateMessage(9, queue.to_plain(), view),
                StateMessage(9, view_plain=view, from_k=7,
                             batches=(batch(4, 5), frozenset(), batch(6))))

    def test_both_forms_round_trip(self):
        for message in self.forms():
            got_sender, got = wire.decode(wire.encode(3, message))
            assert got_sender == 3 and type(got) is StateMessage
            assert got.payload() == message.payload()
        whole, missed = self.forms()
        assert whole.from_k is None and whole.batches == ()
        assert missed.agreed_plain is None and len(missed.batches) == 3

    def test_the_fuzzer_draws_both_forms(self):
        state = dict(wirefuzz.registered_classes())["ab.state"]
        assert state is StateMessage
        assert state.fields == ("k", "agreed_plain", "view_plain",
                                "from_k", "batches")
        rng = random.Random(20)
        drawn = [wirefuzz.random_fields(state, rng) for _ in range(60)]
        assert any(fields["from_k"] is None for fields in drawn)
        assert any(fields["from_k"] is not None for fields in drawn)
        classes = len(wirefuzz.registered_classes())
        report = wirefuzz.fuzz_roundtrip(iterations=3 * classes, seed=20)
        assert report.ok, report.defects
