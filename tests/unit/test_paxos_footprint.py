"""What Paxos logs and ships: one promise per acceptor, ballot epochs,
one record per acceptor per instance, decisions by reference.

Pins the durable layout and the wire forms, then the ways the records
can be caught half-written: a crash at every write of a contended round
and at every delete of the instance GC, a torn acceptor record, a
``Decide`` that overtakes its ``Accept``, an ``Accept`` that never
arrives, two proposers duelling.  The commit point's own crash points
are in ``test_commit_point.py``.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.consensus.paxos import Accept, Decide, Query, make_ballot
from repro.errors import ConsensusError
from repro.harness.cluster import Cluster, ClusterConfig
from repro.runtime import wire, wirefuzz
from repro.storage import codec
from repro.storage.faulty import InjectedCrashFault
from repro.storage.file import FileStorage
from repro.storage.memory import MemoryStorage
from repro.transport.network import NetworkConfig
from tests.conftest import MiniCluster
from tests.unit.test_delta_checkpoints import CrashPointStorage


class PaxosCluster(MiniCluster):
    """Raw Paxos nodes with a tap on the medium: every message handed to
    it is recorded, and swallowed when ``drop`` says so."""

    def __init__(self, n=3, seed=0, storage=lambda i: MemoryStorage(),
                 members=None, network_config=None):
        super().__init__(n=n, seed=seed, storage_factory=storage,
                         network_config=network_config)
        if members is not None:
            for endpoint in self.endpoints.values():
                endpoint.view_source = _StaticView(members)
        self.sent = []
        self.drop = lambda src, dst, message: False
        self._send = self.network.send
        self.network.send = self._tapped

    def _tapped(self, src, dst, message):
        self.sent.append((src, dst, message))
        if not self.drop(src, dst, message):
            self._send(src, dst, message)

    def advance(self, seconds):
        self.run(until=self.sim.now + seconds)

    def propose_all(self, k, nodes=None):
        for i in (self.nodes if nodes is None else nodes):
            self.consensuses[i].propose(k, frozenset({f"k{k}-from-{i}"}))

    def join_all(self, k):
        """Enter ``k`` as Atomic Broadcast does: without a value, which
        only the process whose attempt needs one binds."""
        for i, consensus in self.consensuses.items():
            consensus.value_source = \
                lambda j, i=i: frozenset({f"k{j}-from-{i}"})
            consensus.join(k)

    def decisions(self, k):
        return [self.consensuses[i].decided_value(k) for i in self.nodes]

    def record(self, node_id, key):
        return self.nodes[node_id].storage.retrieve(key)

    def of_type(self, tag, src=None):
        return [(s, d, m) for s, d, m in self.sent
                if m.type == tag and (src is None or s == src)]

    def always_leader(self, *node_ids):
        for i in node_ids:
            self.omegas[i].is_leader = lambda: True


class _StaticView:
    """A view source pinning the member set (an evicted node still runs)."""

    def __init__(self, members):
        self._members = tuple(members)

    def members(self):
        return self._members

    def multisend_targets(self, sender):
        return tuple(sorted(set(self._members) | {sender}))

    def epoch(self):
        return 0

    def subscribe(self, callback):
        pass


def log_ops(cluster, node_id, prefix):
    return cluster.nodes[node_id].storage.metrics.ops_by_prefix.get(prefix, 0)


# -- layout -------------------------------------------------------------------


class TestDurableLayout:
    def test_steady_state_logs_n_records_per_instance(self):
        cluster = PaxosCluster().start()
        instances = 5
        for k in range(instances):
            cluster.join_all(k)
            cluster.advance(2.0)
        ballot = make_ballot(0, 1, 0)       # leader 0's first and only one
        total = 0
        for i in cluster.nodes:
            keys = set(cluster.nodes[i].storage.keys("paxos"))
            assert keys == {"paxos/promised"} \
                | ({"paxos/epoch"} if i == 0 else set()) \
                | {f"paxos/{k}/acceptor" for k in range(instances)}
            assert cluster.record(i, "paxos/promised") == ballot
            # One record per instance; the promise was raised once and
            # only the proposer logged an epoch.  No proposal and no
            # decision is logged anywhere: the leader's proposal is its
            # own acceptor record.
            assert log_ops(cluster, i, "consensus") == 0
            assert log_ops(cluster, i, "paxos") == \
                instances + 1 + (1 if i == 0 else 0)
            total += log_ops(cluster, i, "paxos") - 1 - (i == 0)
            for k in range(instances):
                # Each Accept carried the commit point its predecessor
                # reached: every earlier instance, decided at the ballot.
                accepted_ballot, value, commit = cluster.record(
                    i, f"paxos/{k}/acceptor")
                assert (accepted_ballot, commit) == (ballot, k - 1)
                assert cluster.consensuses[i].decided_value(k) == value
                assert value == frozenset({f"k{k}-from-0"})
        assert total == len(cluster.nodes) * instances
        assert [cluster.consensuses[0].proposal_of(k)
                for k in range(instances)] == \
            [frozenset({f"k{k}-from-0"}) for k in range(instances)]
        assert cluster.consensuses[1].proposal_of(0) is None
        assert cluster.record(0, "paxos/epoch") == 1

    def test_commit_point_resolves_after_recovery(self):
        cluster = PaxosCluster().start()
        for k in range(3):
            cluster.join_all(k)
            cluster.advance(2.0)
        decided = [cluster.decisions(k)[0] for k in range(3)]
        cluster.nodes[1].crash()
        cluster.nodes[1].recover()
        consensus = cluster.consensuses[1]
        assert consensus._decisions == {} and consensus._accepted == {}
        # 0 and 1 are covered by the commit points of 1's and 2's
        # Accepts; nothing has covered 2 yet.
        assert [consensus.decided_value(k) for k in range(3)] == \
            decided[:2] + [None]
        consensus.pull_decision(2, peer=0)
        cluster.advance(0.5)
        assert consensus.decided_value(2) == decided[2]
        assert list(cluster.nodes[1].storage.keys("consensus")) == []

    def test_only_the_multisend_travels_by_reference(self):
        cluster = PaxosCluster().start()
        cluster.propose_all(0)
        cluster.advance(2.0)
        decides = cluster.of_type("paxos.decide")
        # To the two others, not to itself; with nothing more to order,
        # it opens no next instance.
        assert [d for _, d, _ in decides] == [1, 2]
        assert all(m.value is None and m.ballot == make_ballot(0, 1, 0)
                   and not m.prepare_next for _, _, m in decides)
        # A Query, and a stale Prepare, are answered with the value.
        cluster.consensuses[2]._on_query(Query(0), sender=1)
        reply = cluster.of_type("paxos.decide", src=2)[-1][2]
        assert reply.value == cluster.decisions(0)[0] and reply.ballot == -1

    def test_commit_point_rides_accept_into_the_record(self, tmp_path):
        ballot, value = make_ballot(3, 2, 1), frozenset({("a", 1)})
        accept = Accept(4, ballot, value, 3)
        assert accept.payload() == (4, ballot, value, 3)
        _, got = wire.decode(wire.encode(3, accept))
        assert type(got) is Accept and got.payload() == accept.payload()
        # The field costs one small int on the wire, no more.
        assert accept.frame_size() - \
            Accept(4, ballot, value).frame_size() <= 1
        storage = FileStorage(str(tmp_path))
        storage.log(("paxos", 4, "acceptor"), (ballot, value, 3))
        assert FileStorage(str(tmp_path)).retrieve("paxos/4/acceptor") == \
            (ballot, value, 3)


# -- ballots ------------------------------------------------------------------


class TestBallots:
    def test_evicted_proposer_cannot_collide_with_a_member_retry(self):
        """ids 0-3, members (0, 1, 2).  With ``counter * stride + id`` and
        the stride taken from the member set *or* the proposer's own id,
        evicted node 3's first ballot (1*4+3) was member 1's second
        (2*3+1): one ballot, two proposers, one instance."""
        cluster = PaxosCluster(n=4, members=(0, 1, 2)).start()
        cluster.always_leader(1, 3)
        # Nobody answers: every attempt times out and retries.
        cluster.drop = lambda src, dst, m: m.type != "paxos.prepare"
        cluster.propose_all(0, nodes=(1, 3))
        cluster.advance(3.5)
        owners = {}
        for src, _, message in cluster.of_type("paxos.prepare"):
            owners.setdefault(message.ballot, set()).add(src)
        assert len({b for b, who in owners.items() if 1 in who}) >= 2
        assert any(3 in who for who in owners.values())
        assert all(len(who) == 1 for who in owners.values()), owners

    def test_fields_are_fixed_width_and_ordered_by_sequence_first(self):
        assert make_ballot(0, 1, 3) != make_ballot(0, 3, 1)
        assert make_ballot(1, 0, 0) > make_ballot(0, 2 ** 24 - 1, 2 ** 16 - 1)
        assert make_ballot(0, 2, 0) > make_ballot(0, 1, 2 ** 16 - 1)
        for epoch, node_id in ((2 ** 24, 0), (0, 2 ** 16), (-1, 0), (0, -1)):
            with pytest.raises(ConsensusError):
                make_ballot(0, epoch, node_id)

    def test_one_ballot_serves_every_instance_until_a_timeout(self):
        cluster = PaxosCluster().start()
        for k in range(3):
            cluster.propose_all(k)
            cluster.advance(2.0)
        first = {m.ballot for _, _, m in cluster.of_type("paxos.prepare")}
        assert first == {make_ballot(0, 1, 0)}
        # Instance 3 meets silence past attempt_timeout, re-sent Prepares
        # and all: the attempt times out, the ballot is spent, and the
        # next one serves instance 4 as well.
        cluster.drop = lambda src, dst, m: m.type == "paxos.promise"
        cluster.consensuses[0].propose(3, frozenset({"late"}))
        cluster.advance(1.1)                # the timeout strikes at 1.0
        assert cluster.consensuses[0].ballots_retired == 1
        cluster.drop = lambda src, dst, m: False
        cluster.advance(2.0)
        cluster.propose_all(4)
        cluster.advance(2.0)
        by_instance = {}
        for _, _, m in cluster.of_type("paxos.prepare", src=0):
            by_instance.setdefault(m.k, []).append(m.ballot)
        assert sorted(set(by_instance[3])) == \
            [make_ballot(0, 1, 0), make_ballot(1, 1, 0)]
        assert set(by_instance[4]) == {make_ballot(1, 1, 0)}
        assert cluster.decisions(3)[0] == cluster.decisions(3)[2] is not None
        assert log_ops(cluster, 0, "paxos") == 5 + 2 + 1  # accepts, 2 raises
        assert not any("attempts" in key
                       for key in cluster.nodes[0].storage.keys())

    def test_new_incarnation_never_reuses_a_ballot(self):
        cluster = PaxosCluster().start()
        cluster.propose_all(0)
        cluster.advance(2.0)
        cluster.nodes[0].crash()
        cluster.nodes[0].recover()
        cluster.advance(0.5)
        cluster.propose_all(1)
        cluster.advance(3.0)
        ballots = [m.ballot for _, _, m in
                   cluster.of_type("paxos.prepare", src=0) if m.k == 1]
        assert set(ballots) == {make_ballot(1, 2, 0)}   # above its promise
        assert cluster.record(0, "paxos/epoch") == 2
        assert cluster.decisions(1)[0] is not None


class TestDuellingProposers:
    def test_two_leaders_converge_through_the_nack_jump(self):
        cluster = PaxosCluster(seed=4).start()
        cluster.always_leader(0, 1)
        instances = 6
        for k in range(instances):
            cluster.propose_all(k)
            cluster.advance(4.0)
        for k in range(instances):
            values = cluster.decisions(k)
            assert values[0] is not None and values.count(values[0]) == 3
        nacks = cluster.of_type("paxos.nack")
        assert nacks                                   # they did collide
        # One step: after a Nack reporting promise p, that proposer's
        # next Prepare is already above p.
        for index, (src, dst, message) in enumerate(cluster.sent):
            if message.type != "paxos.nack":
                continue
            later = [m.ballot for s, _, m in cluster.sent[index:]
                     if s == dst and m.type == "paxos.prepare"
                     and m.ballot > 0]
            fresh = [b for b in later if b not in
                     {m.ballot for s, _, m in cluster.sent[:index]
                      if s == dst and m.type == "paxos.prepare"}]
            if fresh:
                assert fresh[0] > message.promised
        # Each (instance, ballot) carried one value, from one proposer.
        carried = {}
        for src, _, message in cluster.of_type("paxos.accept"):
            carried.setdefault((message.k, message.ballot), set()).add(
                (src, message.value))
        assert all(len(v) == 1 for v in carried.values())
        # ... and the duel is bounded: a handful of ballots per decision.
        prepares = {(s, m.k, m.ballot)
                    for s, _, m in cluster.of_type("paxos.prepare")}
        assert len(prepares) <= 6 * instances


# -- reordering and loss ------------------------------------------------------


def drop_first(tag, src, dst):
    """A drop rule losing the first ``tag`` message from ``src`` to ``dst``."""
    dropped = []

    def drop(s, d, message):
        if message.type == tag and (s, d) == (src, dst) and not dropped:
            dropped.append(message)
            return True
        return False
    return drop


class TestRepairInsideTheBallot:
    """A lost phase message is re-sent at the same ballot to the members
    that have not answered; the ballot is not spent on it."""

    def test_a_lost_promise_is_repaired_by_a_resent_prepare(self):
        # Two nodes: the quorum needs both promises.
        cluster = PaxosCluster(n=2).start()
        cluster.drop = drop_first("paxos.promise", 1, 0)
        cluster.propose_all(0)
        timeout = cluster.consensuses[0].attempt_timeout
        cluster.advance(timeout * 0.9)
        assert cluster.decisions(0)[0] is not None
        prepares = cluster.of_type("paxos.prepare", src=0)
        assert {m.ballot for _, _, m in prepares} == {make_ballot(0, 1, 0)}
        # To the peer only (the leader promises in-process); the re-send.
        assert [d for _, d, _ in prepares] == [1, 1]
        leader = cluster.consensuses[0]
        assert (leader.resends, leader.ballots_retired) == (1, 0)

    def test_a_lost_accepted_is_repaired_without_a_second_write(self):
        cluster = PaxosCluster(n=2).start()
        cluster.drop = drop_first("paxos.accepted", 1, 0)
        cluster.propose_all(0)
        timeout = cluster.consensuses[0].attempt_timeout
        cluster.advance(timeout * 0.9)
        assert cluster.decisions(0)[0] is not None
        accepts = [m for _, d, m in cluster.of_type("paxos.accept", src=0)
                   if d == 1]
        assert len(accepts) == 2 and accepts[0] is accepts[1]  # one body
        assert len(cluster.of_type("paxos.accepted", src=1)) == 2
        # Node 1 raised its promise once and logged the record once.
        assert log_ops(cluster, 1, "paxos") == 2
        leader = cluster.consensuses[0]
        assert (leader.resends, leader.ballots_retired) == (1, 0)

    def test_duplicated_accepts_are_logged_once(self):
        cluster = PaxosCluster(
            network_config=NetworkConfig(duplicate_rate=1.0)).start()
        instances = 3
        for k in range(instances):
            cluster.propose_all(k)
            cluster.advance(2.0)
        # Sent to the two others; the leader accepts in-process.
        assert len(cluster.of_type("paxos.accept")) == 2 * instances
        assert cluster.network.metrics.duplicated > 0
        for k in range(instances):
            values = cluster.decisions(k)
            assert values[0] is not None and values.count(values[0]) == 3
        for i in cluster.nodes:
            # One record per instance, one promise raise, the epoch.
            assert log_ops(cluster, i, "paxos") == \
                instances + 1 + (1 if i == 0 else 0)

    def test_a_lossless_run_resends_and_retires_nothing(self):
        cluster = Cluster(ClusterConfig(n=5, seed=3, protocol="basic"))
        cluster.start()
        for j in range(40):
            cluster.sim.schedule(0.5 + 0.1 * j, cluster.submit, j % 5,
                                 f"m{j}")
        cluster.run(until=15.0)
        metrics = cluster.metrics()
        assert metrics.messages_delivered == 40
        assert (metrics.resends, metrics.ballots_retired) == (0, 0)



class TestDecideWithoutItsAccept:
    def held_accept_cluster(self):
        """Node 2's Accept for instance 0 is held back; its Decide is not."""
        cluster = PaxosCluster().start()
        held = []

        def hold(src, dst, message):
            if message.type == "paxos.accept" and dst == 2 \
                    and message.k == 0:
                held.append((src, dst, message))
                return True
            return False
        cluster.drop = hold
        cluster.propose_all(0)
        cluster.advance(1.0)
        return cluster, held

    def test_decide_overtaking_its_accept_is_parked_then_completed(self):
        cluster, held = self.held_accept_cluster()
        consensus = cluster.consensuses[2]
        ballot = make_ballot(0, 1, 0)
        assert cluster.decisions(0)[0] is not None
        assert consensus.decided_value(0) is None
        assert consensus._parked == {0: ballot}
        assert cluster.record(2, "consensus/0/decision") is None
        before = len(cluster.sent)
        cluster.drop = lambda src, dst, m: False
        cluster._send(*held[0])                 # the Accept lands at last
        cluster.advance(0.5)
        assert consensus.decided_value(0) == cluster.decisions(0)[0]
        assert consensus._parked == {}
        # Locked in memory; the record is the Accept's, nothing more.
        assert cluster.record(2, "consensus/0/decision") is None
        assert cluster.record(2, "paxos/0/acceptor") == \
            (ballot, cluster.decisions(0)[0], -1)
        answers = [m.type for s, _, m in cluster.sent[before:] if s == 2
                   and m.type.startswith("paxos.")]
        assert answers == ["paxos.accepted"]    # not a Decide back

    def test_lost_accept_is_repaired_by_the_drivers_query(self):
        cluster, held = self.held_accept_cluster()
        cluster.advance(2 * cluster.consensuses[2].attempt_timeout + 0.5)
        queries = cluster.of_type("paxos.query", src=2)
        assert queries and queries[0][2].k == 0
        assert cluster.consensuses[2].decided_value(0) == \
            cluster.decisions(0)[0]
        # Learnt by value, and locked in memory only: there is no
        # acceptor record, and a decision is never logged.
        assert cluster.record(2, "consensus/0/decision") is None
        assert cluster.record(2, "paxos/0/acceptor") is None
        assert cluster.consensuses[2]._parked == {}

    def test_lost_accept_is_repaired_by_pull_decision(self):
        cluster, held = self.held_accept_cluster()
        cluster.consensuses[2].pull_decision(0, peer=1)
        cluster.advance(0.5)
        assert [(s, d) for s, d, _ in cluster.of_type("paxos.query")] == \
            [(2, 1)]
        assert cluster.consensuses[2].decided_value(0) == \
            cluster.decisions(0)[0]

    def test_reference_to_a_later_ballot_than_accepted_is_not_taken(self):
        cluster = PaxosCluster().start()
        consensus = cluster.consensuses[2]
        low, high = make_ballot(0, 1, 0), make_ballot(1, 1, 1)
        consensus._on_accept(Accept(0, low, frozenset({"old"})), sender=0)
        consensus._on_decide(Decide(0, high), sender=1)
        assert consensus.decided_value(0) is None   # "old" was not chosen
        assert consensus._parked == {0: high}
        consensus._on_accept(Accept(0, high, frozenset({"new"})), sender=1)
        assert consensus.decided_value(0) == frozenset({"new"})
        # ... while a reference to an *earlier* ballot is: every ballot
        # after a choice carries the chosen value.
        consensus._on_accept(Accept(1, high, frozenset({"v"})), sender=1)
        consensus._on_decide(Decide(1, low), sender=0)
        assert consensus.decided_value(1) == frozenset({"v"})
        assert list(cluster.nodes[2].storage.keys("consensus")) == []

    def test_twenty_percent_loss_is_repaired_through_the_query_paths(self):
        """Through the whole stack: the gossip tick's ``pull_decision``
        and the drivers' ``Query`` fetch what loss took."""
        cluster = Cluster(ClusterConfig(
            n=3, seed=23, protocol="basic",
            network=NetworkConfig(loss_rate=0.2)))
        cluster.start()
        count = 30
        for j in range(count):
            cluster.sim.schedule(0.5 + 0.2 * j, cluster.submit, j % 3,
                                 f"m{j}")
        cluster.run(until=60.0)
        sequences = [[m.payload for m in ab.deliver_sequence()]
                     for ab in cluster.abcasts.values()]
        assert len(sequences[0]) == count
        assert sequences[0] == sequences[1] == sequences[2]
        # What a restart would find: most decisions proved by the
        # acceptor records and their commit points, the rest (a lost
        # Accept, the last instance of a ballot) left to the pulls —
        # and never a record proving a value that was not decided.
        proved = unproved = 0
        for node_id, consensus in cluster.consensuses.items():
            for k in range(cluster.abcasts[node_id].k):
                value = consensus._decision_on_record(k)
                if value is None:
                    unproved += 1
                else:
                    assert value == consensus.decided_value(k)
                    proved += 1
        assert unproved and proved > unproved
        assert cluster.network.metrics.by_type.get("paxos.query", 0) > 0


# -- crashes and torn disks ---------------------------------------------------


def contended_round():
    """Three nodes at the brink of a round two of them will fight over.

    Instance 0 was decided under leader 0.  For instance 1, node 1 also
    believes it leads: its first attempt logs its epoch, both raise each
    other's promises, and someone accepts.
    """
    cluster = PaxosCluster(seed=2, storage=CrashPointStorage).start()
    cluster.propose_all(0)
    cluster.advance(2.0)
    cluster.always_leader(0, 1)

    def action():
        cluster.propose_all(1)
        cluster.advance(6.0)
    return cluster, action


def finish_and_check(cluster, victim, instances):
    """Recover the victim, replay its proposals, and check the outcome."""
    cluster.nodes[victim].crash()
    cluster.advance(0.5)
    before = len(cluster.sent)
    old_ballots = {m.ballot for s, _, m in cluster.sent
                   if s == victim and m.type == "paxos.prepare"}
    cluster.nodes[victim].recover()
    consensus = cluster.consensuses[victim]
    for k, value in consensus.logged_instances().items():
        consensus.propose(k, value)             # the replay procedure
    for k in instances:
        if consensus.proposal_of(k) is None:
            cluster.propose_all(k, nodes=[victim])
    cluster.advance(12.0)
    for k in instances:
        values = cluster.decisions(k)
        assert values[0] is not None and values.count(values[0]) == 3, k
        # Whatever the records prove after the crash is the decision.
        for i in cluster.nodes:
            assert cluster.consensuses[i]._decision_on_record(k) in \
                (None, values[0])
    new_ballots = {m.ballot for s, _, m in cluster.sent[before:]
                   if s == victim and m.type == "paxos.prepare"}
    assert not new_ballots & old_ballots
    carried = {}
    for src, _, message in cluster.of_type("paxos.accept"):
        carried.setdefault((message.k, message.ballot), set()).add(
            (src, message.value))
    assert all(len(v) == 1 for v in carried.values())


class TestCrashAtEveryWrite:
    @pytest.mark.parametrize("victim", [0, 1])
    def test_inside_a_contended_round(self, victim):
        cluster, action = contended_round()
        storage = cluster.nodes[victim].storage
        mark = len(storage.operations)
        action()
        touched = storage.operations[mark:]
        # The round wrote each kind of record at the victim.
        assert "consensus/1/proposal" in touched
        assert "paxos/promised" in touched
        assert "paxos/1/acceptor" in touched
        assert "consensus/1/decision" not in touched
        assert ("paxos/epoch" in touched) == (victim == 1)
        assert touched.count("paxos/promised") >= (2 if victim == 0 else 1)
        for index in range(len(touched)):
            cluster, action = contended_round()
            cluster.nodes[victim].storage.crash_at = index
            with pytest.raises(InjectedCrashFault) as fault:
                action()
            assert fault.value.path == touched[index]
            finish_and_check(cluster, victim, instances=(0, 1))

    def test_inside_the_instance_gc(self):
        def scenario():
            cluster = PaxosCluster(storage=CrashPointStorage).start()
            for k in range(5):
                cluster.propose_all(k)
                cluster.advance(2.0)
            return cluster, cluster.consensuses[0]
        cluster, consensus = scenario()
        expected = {k: consensus.decided_value(k) for k in range(4)}
        storage = cluster.nodes[0].storage
        mark = len(storage.operations)
        # Three proposals, three acceptor records.
        assert consensus.discard_instances_below(3) == 6
        touched = storage.operations[mark:]
        assert len(touched) == 6
        assert sorted(cluster.nodes[0].storage.keys("paxos")) == \
            ["paxos/3/acceptor", "paxos/4/acceptor", "paxos/epoch",
             "paxos/promised"]
        for index in range(len(touched)):
            cluster, consensus = scenario()
            cluster.nodes[0].storage.crash_at = index
            with pytest.raises(InjectedCrashFault) as fault:
                consensus.discard_instances_below(3)
            assert fault.value.path == touched[index]
            cluster.nodes[0].crash()
            cluster.nodes[0].recover()
            consensus = cluster.consensuses[0]
            for k in range(4):
                # Gone, or proved by what is left — never another value.
                value = consensus.decided_value(k)
                assert value == expected[k] or (k < 3 and value is None)
            assert consensus.decided_value(3) == expected[3]
            # The GC is idempotent: a second pass finishes the job.
            consensus.discard_instances_below(3)
            assert sorted(cluster.nodes[0].storage.keys("paxos")) == \
                ["paxos/3/acceptor", "paxos/4/acceptor", "paxos/epoch",
                 "paxos/promised"]


class TestTornAcceptorRecord:
    def test_a_quarantined_record_reads_undecided(self, tmp_path):
        cluster = PaxosCluster(
            storage=lambda i: FileStorage(str(tmp_path / str(i)))).start()
        for k in range(2):
            cluster.join_all(k)
            cluster.advance(2.0)
        decided = cluster.decisions(0)[0]
        storage = cluster.nodes[2].storage
        assert cluster.consensuses[2]._decision_on_record(0) == decided
        target = storage._file_for("paxos/0/acceptor")
        with open(target, "rb") as handle:
            raw = handle.read()
        with open(target, "wb") as handle:
            handle.write(raw[:len(raw) // 2])       # torn
        cluster.nodes[2].crash()
        cluster.nodes[2].recover()
        consensus = cluster.consensuses[2]
        assert consensus.decided_value(0) is None   # degraded, not wrong
        assert storage.metrics.quarantined == 1
        assert os.listdir(os.path.join(storage.directory, "quarantine"))
        # Re-learnt through the Query path, in memory: a decision is
        # never logged, so the next restart pulls it again.
        consensus.pull_decision(0, peer=0)
        cluster.advance(0.5)
        assert consensus.decided_value(0) == decided
        assert storage.retrieve("consensus/0/decision") is None
        cluster.nodes[2].crash()
        cluster.nodes[2].recover()
        assert cluster.consensuses[2].decided_value(0) is None
        assert cluster.consensuses[2].decided_value(1) is None  # uncovered


# -- the wire -----------------------------------------------------------------


class TestDecideOnTheWire:
    def forms(self):
        value = frozenset({("a", 1), ("b", 2)})
        return Decide(7, make_ballot(2, 3, 1)), Decide(7, -1, value)

    def test_both_forms_round_trip(self):
        for message in self.forms():
            got_sender, got = wire.decode(wire.encode(3, message))
            assert got_sender == 3 and type(got) is Decide
            assert got.payload() == message.payload()
        by_reference, by_value = self.forms()
        assert by_reference.value is None and by_value.ballot == -1
        assert by_reference.frame_size() == \
            len(wire.encode_frame(3, by_reference)) == \
            wire.HEADER.size + 2 + codec.size(by_reference.ballot) \
            + 1 + 1                                     # None, the flag

    def test_the_fuzzer_draws_both_forms(self):
        decide = dict(wirefuzz.registered_classes())["paxos.decide"]
        assert decide is Decide
        assert decide.fields == ("k", "ballot", "value", "prepare_next")
        rng = random.Random(21)
        drawn = [wirefuzz.random_fields(decide, rng) for _ in range(80)]
        assert any(fields["value"] is None for fields in drawn)
        assert any(fields["value"] is not None for fields in drawn)
        classes = len(wirefuzz.registered_classes())
        report = wirefuzz.fuzz_roundtrip(iterations=3 * classes, seed=21)
        assert report.ok, report.defects
