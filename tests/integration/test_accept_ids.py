"""An ``Accept`` names by id what its recipient holds; nothing else does.

Per recipient, the leader's ``Accept`` carries the id in place of each
payload the recipient is known to hold: one it minted at the highest
incarnation the leader has seen from it, or one its last digest lists.
The acceptor rebuilds the full value from its Unordered set before it
promises, accepts or logs anything; one that lacks a payload stays
silent, and the full-form re-send or the decision repairs it.  Outside
that one hop only full values exist: every acceptor record and every
decision holds application messages only, which :func:`~repro.harness.
verify.decided_batch` checks and these tests assert for every stack and
for seeded chaos runs.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import pytest

from repro.chaos.engine import ChaosConfig, run_seed
from repro.consensus.paxos import Accept
from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.errors import VerificationError
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import canonical_sequence, decided_batch, verify_run
from repro.storage.stable import StableStorage
from repro.transport.message import unpack
from repro.transport.network import Network, NetworkConfig
from repro.transport.scoped import ScopedMessage
from tests.conftest import tap
from tests.integration.test_one_size import PROTOCOLS, drive


def named(value: Any) -> List[Any]:
    """The items of an ``Accept`` value sent as ids."""
    return [item for item in value if type(item) is not AppMessage]


@pytest.fixture
def records(monkeypatch) -> List[Tuple[str, Any]]:
    """Every acceptor record any storage logs from now on."""
    logged: List[Tuple[str, Any]] = []
    log = StableStorage.log

    def recording(storage, key, value):
        if isinstance(key, tuple) and key[-1] == "acceptor":
            logged.append(("/".join(map(str, key)), value))
        log(storage, key, value)
    monkeypatch.setattr(StableStorage, "log", recording)
    return logged


@pytest.fixture
def accepts(monkeypatch) -> List[Tuple[int, int, Accept]]:
    """Every ``Accept`` any simulated network is handed from now on."""
    sent: List[Tuple[int, int, Accept]] = []
    send = Network.send

    def recording(network, src, dst, message):
        for part in unpack(message):
            if type(part) is ScopedMessage:
                part = part.inner   # one group's, in a multigroup stack
            if type(part) is Accept:
                sent.append((src, dst, part))
        send(network, src, dst, message)
    monkeypatch.setattr(Network, "send", recording)
    return sent


def check_records(logged: List[Tuple[str, Any]]) -> None:
    for key, (_ballot, value, _commit) in logged:
        decided_batch(key, value)


class TestOnlyFullValuesOutsideTheHop:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_record_and_decision_holds_app_messages(
            self, protocol, records, accepts):
        cluster, _ = drive(protocol)
        check_records(records)
        if protocol == "multigroup":
            decisions = [(k, value)
                         for groups in cluster.group_abs.values()
                         for ab in groups.values()
                         for k, value in ab.consensus._decisions.items()]
        else:
            decisions = list(cluster.collector.decisions.items())
            canonical_sequence(cluster.collector.decisions)
        assert decisions or protocol == "sequencer"  # no consensus there
        for k, value in decisions:
            decided_batch(k, value)
        if protocol in ("basic", "alternative", "multigroup"):
            # Paxos stacks: the check above saw ids on the wire.
            assert records
            assert any(named(accept.value) for *_, accept in accepts)

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_chaos_seeds(self, seed, records, accepts):
        result = run_seed(ChaosConfig(seeds=1), seed)
        assert result.ok, result.error
        check_records(records)
        assert any(named(accept.value) for *_, accept in accepts)

    def test_a_leaked_id_is_a_verification_error(self):
        mid = MessageId(1, 1, 7)
        leaked = frozenset({AppMessage(MessageId(0, 1, 1), "a"), mid})
        with pytest.raises(VerificationError, match=r"instance 3 .*7"):
            canonical_sequence({3: leaked})
        with pytest.raises(VerificationError, match="instance 3"):
            decided_batch(3, frozenset({(1, 1, 7)}))


def build(seed=1, **kwargs):
    cluster = Cluster(ClusterConfig(
        n=3, seed=seed,
        network=NetworkConfig(min_delay=0.01, max_delay=0.02), **kwargs))
    cluster.start()
    return cluster


def restart_when_named(cluster, victim, lose=lambda message: False):
    """Tap the network; the moment the leader sends ``victim`` an
    ``Accept`` that names one of ``victim``'s own messages by id,
    ``victim`` crashes and recovers in the same instant, so the
    ``Accept`` reaches an incarnation that lost its Unordered set.
    ``lose(message)`` drops a frame to ``victim``.  Returns the frames
    seen and, once it happened, ``[(time, accept)]``."""
    hit: List[Tuple[float, Accept]] = []

    def drop(src, dst, message):
        if src == 0 and dst == victim and type(message) is Accept \
                and not hit and any(mid[0] == victim
                                    for mid in named(message.value)):
            hit.append((cluster.sim.now, message))
            cluster.sim.schedule(0.0, cluster.crash, victim)
            cluster.sim.schedule(0.0, cluster.recover, victim)
        return dst == victim and lose(message)
    return tap(cluster.network, drop=drop), hit


def decision_times(cluster, node_id):
    """``[(time, k)]`` of each decision ``node_id`` locks from now on."""
    consensus = cluster.consensuses[node_id]
    times, record = [], consensus._record_decision

    def recording(k, value):
        if consensus.decided_value(k) is None:
            times.append((cluster.sim.now, k))
        record(k, value)
    consensus._record_decision = recording
    return times


def accepted_by(seen, src, k):
    return [when for when, s, _, m in seen
            if s == src and m.type == "paxos.accepted" and m.k == k]


class TestAnAcceptorThatLacksAPayload:
    def test_a_restarted_follower_stays_silent_and_learns_the_decision(
            self):
        cluster = build()
        seen, hit = restart_when_named(cluster, victim=2)
        learnt = decision_times(cluster, 2)
        for j in range(8):
            cluster.sim.schedule(0.4 + 0.05 * j, cluster.submit,
                                 2 if j % 2 else 1, f"m{j}")
        cluster.run(until=3.0)
        assert hit, "no Accept named a message of node 2's by id"
        when, accept = hit[0]
        k = accept.k
        leader = cluster.consensuses[0]
        # The instance decided on the leader and node 1, without node 2.
        value = leader.decided_value(k)
        assert value is not None and not named(value)
        assert len(value) == len(accept.value)
        assert not accepted_by(seen, 2, k)
        # Node 2 never logged a record of k at the new incarnation.
        restarted = cluster.consensuses[2]
        assert restarted._accepted_state(k)[0] != accept.ballot
        # It learnt the decision within one pull: the tick after the
        # gossip that showed it behind, and that pull's round trip.
        decided = [at for at, instance in learnt if instance == k]
        gossip = cluster.abcasts[2].gossip_interval
        assert decided and decided[0] - when <= 2 * gossip + 0.1
        assert restarted.decided_value(k) == value
        assert cluster.settle(within=30.0)
        verify_run(cluster)

    def test_a_lost_full_form_resend_still_decides_in_the_ballot(self):
        cluster = build()
        cluster.sim.schedule(0.3, cluster.crash, 1)     # no quorum without 2
        lost: List[Accept] = []

        def lose_first_resend(message):
            if type(message) is Accept and hit and not lost \
                    and message.k == hit[0][1].k \
                    and not named(message.value):
                lost.append(message)
                return True
            return False
        seen, hit = restart_when_named(cluster, 2, lose_first_resend)
        cluster.sim.schedule(0.5, cluster.submit, 2, "own")
        cluster.sim.schedule(0.5, cluster.submit, 0, "leader's")
        cluster.run(until=3.0)
        assert hit and lost
        _, accept = hit[0]
        leader = cluster.consensuses[0]
        assert lost[0].ballot == accept.ballot
        assert leader.decided_value(accept.k) is not None
        # Decided at the ballot of the id-form Accept: the second
        # re-send carried the full form, and node 2 accepted it.
        assert leader.ballots_retired == 0 and leader.resends >= 2
        assert accepted_by(seen, 2, accept.k)
        cluster.recover(1)
        assert cluster.settle(within=30.0)
        verify_run(cluster)
