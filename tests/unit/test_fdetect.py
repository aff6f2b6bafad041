"""Unit tests for the heartbeat failure detector and the Ω oracle.

The detector watches only its Ω candidates and the peers a component
declared interest in, so every property below is pinned from a
watcher's side: a follower watching the leader, or an explicit
``watch``.
"""

from __future__ import annotations

import pytest

from repro.fdetect.heartbeat import Heartbeat, HeartbeatDetector
from repro.harness.cluster import Cluster, ClusterConfig
from repro.transport.message import WireMessage
from tests.conftest import tap


class Note(WireMessage):
    """Some protocol's message: nothing about it says "alive"."""

    type = "test.fd.note"
    fields = ()


def beats(seen, since=0.0):
    return [(when, src, dst) for when, src, dst, message in seen
            if message.type == Heartbeat.type and when >= since]


def detector_of(cluster, node_id):
    return cluster.nodes[node_id].get_component(HeartbeatDetector)


class TestHeartbeatDetector:
    def test_no_suspicions_in_stable_run(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        cluster.run(until=20.0)
        for detector in cluster.detectors.values():
            assert detector.suspects() == set()

    def test_completeness_crashed_node_suspected(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        cluster.run(until=5.0)
        cluster.nodes[0].crash()            # the leader: everyone watches it
        cluster.run(until=15.0)
        assert 0 in cluster.detectors[1].suspects()
        assert 0 in cluster.detectors[2].suspects()

    def test_self_never_suspected(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        cluster.run(until=15.0)
        for node_id, detector in cluster.detectors.items():
            assert node_id not in detector.suspects()

    def test_recovered_node_rehabilitated(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        cluster.run(until=5.0)
        cluster.nodes[0].crash()
        cluster.run(until=15.0)
        assert 0 in cluster.detectors[2].suspects()
        cluster.nodes[0].recover()
        cluster.run(until=25.0)
        assert 0 not in cluster.detectors[2].suspects()

    def test_timeout_adapts_on_false_suspicion(self, mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=5.0)
        detector = cluster.detectors[1]
        base = detector.timeout_for(0)
        cluster.nodes[0].crash()
        cluster.run(until=12.0)   # 1 suspects 0
        cluster.nodes[0].recover()
        cluster.run(until=20.0)   # the leader's beat refutes the suspicion
        assert detector.timeout_for(0) > base

    def test_a_restart_logs_nothing_for_the_detector(self, mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=2.0)
        cluster.nodes[1].crash()
        cluster.nodes[1].recover()
        cluster.run(until=4.0)
        for node in cluster.nodes.values():
            assert "fd" not in node.storage.metrics.ops_by_prefix


class TestScopedWatching:
    """Only the peers someone waits on have deadlines."""

    def test_the_lowest_id_watches_nobody_and_the_rest_the_leader(
            self, mini_cluster):
        cluster = mini_cluster(n=5).start()
        cluster.run(until=10.0)
        assert cluster.detectors[0].candidates() == []
        assert set(cluster.detectors[0]._last_heard) == set()
        for node_id in range(1, 5):
            detector = cluster.detectors[node_id]
            assert detector.candidates() == [0]
            assert set(detector._last_heard) == {0}

    def test_after_a_leader_crash_only_the_next_id_trusts_itself(
            self, mini_cluster):
        # Each follower brings node 1 in when it suspects node 0; a fresh
        # grace period gives node 1 (which starts beating once it too
        # suspects 0) time to be heard before anyone suspects it.
        n = 25
        cluster = mini_cluster(n=n).start()
        trusted = {node_id: [] for node_id in range(n)}

        def record(node_id, omega):
            while True:
                leader = yield omega.changed.wait()
                trusted[node_id].append(leader)

        cluster.run(until=2.0)
        for node_id, omega in cluster.omegas.items():
            cluster.nodes[node_id].spawn(record(node_id, omega), "record")
        cluster.nodes[0].crash()
        cluster.run(until=20.0)
        assert trusted[1] == [1]
        for node_id in range(2, n):
            assert trusted[node_id] == [1], node_id
            assert cluster.detectors[node_id].candidates() == [0, 1]

    def test_a_non_leader_sends_no_alive(self):
        cluster = Cluster(ClusterConfig(n=5, seed=4))
        seen = tap(cluster.network)
        cluster.start()
        for j in range(20):
            cluster.sim.schedule(0.5 + 0.4 * j, cluster.submit, j % 5, j)
        cluster.run(until=12.0)
        assert beats(seen)                  # the leader's start-up round
        assert {src for _, src, _ in beats(seen)} == {0}

    def test_a_watched_crash_is_suspected_within_the_timeout(self):
        # Node 3 is above the leader, so only an explicit watch makes
        # the leader listen for it; its gossip digests (to the leader,
        # every tick) keep it trusted while it is up.
        cluster = Cluster(ClusterConfig(n=5, seed=7))
        cluster.start()
        for j in range(30):
            cluster.sim.schedule(0.5 + 0.3 * j, cluster.submit,
                                 (0, 1, 2, 4)[j % 4], j)
        detector = detector_of(cluster, 0)
        cluster.run(until=2.0)
        assert not detector.is_suspected(3) and 3 not in detector._last_heard
        detector.watch(3)
        crash_at = 5.3
        cluster.run(until=crash_at)
        assert not detector.is_suspected(3)
        cluster.crash(3)
        while not detector.is_suspected(3):
            cluster.run(until=cluster.sim.now + 0.01)
        max_delay = cluster.config.network.max_delay
        assert cluster.sim.now - crash_at \
            <= detector.timeout_for(3) + max_delay + 0.01
        # The watch is nested; the suspicion leaves with the last unwatch.
        detector.watch(3)
        detector.unwatch(3)
        assert detector.is_suspected(3)
        detector.unwatch(3)
        assert not detector.is_suspected(3)
        assert 3 not in detector._last_heard


class TestLivenessRidesOnTraffic:
    """Any arrival is an ALIVE; explicit beats go only to silent links
    from a node someone may be watching; suspicion falls at the
    deadline."""

    def test_idle_stack_beats_every_period_and_suspects_nobody(
            self, mini_cluster):
        # Detector + Ω + an idle Paxos: nothing else ever speaks, so the
        # leader beats every period and the followers never do.
        cluster = mini_cluster(n=3)
        seen = tap(cluster.network)
        cluster.start()
        cluster.run(until=20.0)
        period = cluster.detectors[0].period
        for src in range(3):
            for dst in range(3):
                times = [when for when, s, d in beats(seen)
                         if (s, d) == (src, dst)]
                if src != 0 or src == dst:
                    assert times == []      # followers, and never to itself
                    continue
                assert times[0] == 0.0
                gaps = [b - a for a, b in zip(times, times[1:])]
                assert gaps and all(gap == pytest.approx(period)
                                    for gap in gaps)
        for detector in cluster.detectors.values():
            assert detector.suspects() == set()

    def test_under_gossip_no_beat_follows_the_start_up_round(self):
        cluster = Cluster(ClusterConfig(n=3, seed=4))
        seen = tap(cluster.network)
        cluster.start()
        cluster.run(until=20.0)
        assert sorted((src, dst) for _, src, dst in beats(seen)) == \
            [(0, 1), (0, 2)]
        assert beats(seen, since=0.001) == []
        for node in cluster.nodes.values():
            assert node.get_component(HeartbeatDetector).suspects() == set()

    def test_any_message_type_refutes_a_suspicion(self, mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=3.0)
        detector = cluster.detectors[1]
        base = detector.timeout_for(0)
        cluster.nodes[1].register_handler(Note.type, lambda m, s: None)
        cluster.network.partition(0, 1)
        cluster.run(until=8.0)
        assert detector.is_suspected(0)
        cluster.nodes[1].deliver(Note(), 0)
        assert not detector.is_suspected(0)
        assert detector.timeout_for(0) == base + detector.timeout_increment
        # Heard while trusted: fresher evidence, no further widening.
        cluster.nodes[1].deliver(Note(), 0)
        assert detector.timeout_for(0) == base + detector.timeout_increment

    def test_an_unconsumed_or_own_message_is_not_evidence(self,
                                                          mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=3.0)
        detector = cluster.detectors[1]
        cluster.network.partition(0, 1)
        cluster.run(until=8.0)
        assert detector.is_suspected(0)
        assert not cluster.nodes[1].deliver(Note(), 0)   # no handler
        assert detector.is_suspected(0)
        heard = dict(detector._last_heard)
        cluster.nodes[1].register_handler(Note.type, lambda m, s: None)
        cluster.nodes[1].deliver(Note(), 1)              # loopback
        assert detector._last_heard == heard

    def test_suspicion_falls_at_the_deadline(self, mini_cluster):
        cluster = mini_cluster(n=2).start()
        detector = cluster.detectors[1]
        fired = []

        def watch():
            while True:
                yield detector.changed.wait()
                fired.append((cluster.sim.now, detector._last_heard[0]))

        cluster.nodes[1].spawn(watch(), "watch")
        crash_at = 5.3          # between two of node 0's period ticks
        cluster.run(until=crash_at)
        cluster.nodes[0].crash()
        cluster.run(until=15.0)
        (when, last_heard), = fired
        timeout = detector.initial_timeout
        # Not "at the first poll after the deadline": at it.
        assert when == pytest.approx(last_heard + timeout, abs=1e-9)
        # What a benchmark times from the kill to the first suspicion:
        # the victim last spoke at most a period before dying, and that
        # took at most max_delay to arrive.
        max_delay = cluster.network.config.max_delay
        assert timeout - detector.period <= when - crash_at \
            <= timeout + max_delay

    def test_one_way_silence_is_suspected_one_way(self, mini_cluster):
        cluster = mini_cluster(n=2)
        tap(cluster.network,
            drop=lambda src, dst, message: (src, dst) == (0, 1))
        cluster.start()
        # Node 1 holds a role node 0 waits on, so each watches the other.
        cluster.detectors[1].watch(1)
        cluster.detectors[0].watch(1)
        cluster.run(until=15.0)
        assert cluster.detectors[1].suspects() == {0}
        assert cluster.detectors[0].suspects() == set()

    def test_first_words_of_a_recovered_leader_are_beats(self):
        cluster = Cluster(ClusterConfig(n=3, seed=4))
        seen = tap(cluster.network)
        cluster.start()
        cluster.run(until=5.0)
        cluster.nodes[0].crash()
        cluster.run(until=6.0)
        assert cluster.nodes[0].last_sent == {}     # the clock is volatile
        cluster.nodes[0].recover()
        recovered_at = cluster.sim.now
        cluster.run(until=9.0)
        for dst in (1, 2):
            first = next(message for when, src, d, message in seen
                         if when >= recovered_at and (src, d) == (0, dst))
            assert first.type == Heartbeat.type


class TestHeartbeatGrayFailures:
    """The detector under gray failures: a leader that is slow or lossy
    but never actually down.  Eventual accuracy demands its watchers
    first (wrongly) suspect, then rehabilitate and widen the timeout so
    the same slowness stops producing suspicions."""

    def test_sustained_loss_burst_suspect_then_rehabilitate(self,
                                                            mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=5.0)
        detector = cluster.detectors[1]
        base = detector.timeout_for(0)
        assert detector.suspects() == set()
        # Sustained burst: nearly every heartbeat is lost for a long
        # stretch — far longer than the suspicion timeout.
        cluster.network.config.loss_rate = 0.97
        cluster.run(until=30.0)
        assert 0 in detector.suspects()
        cluster.network.config.loss_rate = 0.0
        cluster.run(until=60.0)
        # The leader was never down: the suspicion must be withdrawn and
        # the refutation must have widened the adaptive timeout.
        assert 0 not in detector.suspects()
        assert detector.timeout_for(0) > base

    def test_limping_peer_suspected_then_rehabilitated(self, mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=5.0)
        detector = cluster.detectors[1]
        base = detector.timeout_for(0)
        # The suspicion window is transient (it closes as soon as the
        # first delayed heartbeat lands), so sample it with a probe
        # task instead of asserting at one instant.
        suspected_at = []

        def probe():
            while True:
                if 0 in detector.suspects():
                    suspected_at.append(cluster.sim.now)
                yield 0.1

        cluster.nodes[1].spawn(probe(), "probe")
        # Limping leader: every message to/from node 0 takes 3 extra
        # seconds, beyond the 2s initial timeout.  The *transition*
        # opens a heartbeat gap; once the pipeline fills, heartbeats
        # resume at their period and refute the suspicion.
        cluster.network.set_node_delay(0, 3.0)
        cluster.run(until=25.0)
        assert suspected_at, "limp onset never produced a suspicion"
        assert 0 not in detector.suspects()
        assert detector.timeout_for(0) > base
        cluster.network.clear_node_delay(0)
        cluster.run(until=40.0)
        assert detector.suspects() == set()

    def test_timeout_widens_monotonically_across_bursts(self, mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=5.0)
        detector = cluster.detectors[1]
        observed = [detector.timeout_for(0)]
        for burst in range(3):
            cluster.network.config.loss_rate = 0.97
            cluster.run(until=cluster.sim.now + 25.0)
            cluster.network.config.loss_rate = 0.0
            cluster.run(until=cluster.sim.now + 25.0)
            assert 0 not in detector.suspects()
            observed.append(detector.timeout_for(0))
        # Adaptation never narrows, and the bursts forced real widening.
        assert all(b >= a for a, b in zip(observed, observed[1:]))
        assert observed[-1] > observed[0]


class TestOmega:
    def test_stable_run_elects_lowest_id(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        cluster.run(until=10.0)
        assert all(cluster.omegas[i].leader() == 0 for i in range(3))
        assert cluster.omegas[0].is_leader()
        assert not cluster.omegas[1].is_leader()

    def test_leader_crash_elects_next(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        cluster.run(until=5.0)
        cluster.nodes[0].crash()
        cluster.run(until=20.0)
        assert cluster.omegas[1].leader() == 1
        assert cluster.omegas[2].leader() == 1

    def test_leader_recovery_restores_lowest(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        cluster.run(until=5.0)
        cluster.nodes[0].crash()
        cluster.run(until=20.0)
        cluster.nodes[0].recover()
        cluster.run(until=40.0)
        assert all(cluster.omegas[i].leader() == 0 for i in range(3))

    def test_change_signal_fires(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        cluster.run(until=5.0)
        changes = []

        def watcher():
            while True:
                value = yield cluster.omegas[1].changed.wait()
                changes.append(value)

        cluster.nodes[1].spawn(watcher(), "watch")
        cluster.nodes[0].crash()
        cluster.run(until=20.0)
        assert 1 in changes

    def test_leader_reads_the_detectors_candidates(self, mini_cluster):
        cluster = mini_cluster(n=4).start()
        cluster.run(until=5.0)
        cluster.nodes[0].crash()
        cluster.nodes[1].crash()
        cluster.run(until=20.0)
        detector = cluster.detectors[3]
        assert detector.candidates() == [0, 1, 2]
        assert cluster.omegas[3].leader() == 2
        assert cluster.omegas[2].leader() == 2
        assert cluster.detectors[2].trusts_self()


def under_load(n, seed, until, rate_gap=0.1):
    """A simulated cluster with a steady stream of submissions to every
    node but the leader, so the crash of node 0 loses no backlog."""
    cluster = Cluster(ClusterConfig(n=n, seed=seed))
    seen = tap(cluster.network)
    cluster.start()
    for j in range(int(until / rate_gap)):
        cluster.sim.schedule(0.2 + rate_gap * j, cluster.submit,
                             1 + j % (n - 1), j)
    return cluster, seen


class TestTimeoutFromTheBeatContract:
    """The suspicion timeout starts at 2¼ beat periods: one lost beat
    and the delay variation, no more."""

    def test_the_initial_timeout_is_derived_from_the_period(self):
        cluster = Cluster(ClusterConfig(n=3, seed=0, fd_period=0.2))
        detector = detector_of(cluster, 1)
        assert detector.initial_timeout == pytest.approx(0.45)
        cluster.start()
        assert detector.timeout_for(0) == pytest.approx(0.45)

    def test_a_crashed_leader_under_load_is_suspected_and_replaced(self):
        cluster, seen = under_load(3, seed=41, until=12.0)
        crash_at = 5.37
        cluster.run(until=crash_at)
        cluster.crash(0)
        followers = {i: detector_of(cluster, i) for i in (1, 2)}
        suspected = {}
        while len(suspected) < 2:
            cluster.run(until=cluster.sim.now + 0.005)
            for i, detector in followers.items():
                if i not in suspected and detector.is_suspected(0):
                    suspected[i] = cluster.sim.now - crash_at
        period = followers[1].period
        timeout = 2.25 * period
        max_delay = cluster.config.network.max_delay
        for i, after in suspected.items():
            assert timeout - period <= after <= timeout + max_delay + 0.005, i
        cluster.run(until=crash_at + 3.0)
        first = min(when for when, src, _, message in seen
                    if src == 1 and message.type == "paxos.decide"
                    and when > crash_at)
        assert first - crash_at <= 1.8

    def test_one_lost_beat_is_not_a_suspicion(self, mini_cluster):
        # Idle: the leader's beats are the only traffic on its links.
        cluster = mini_cluster(n=2)
        lost = []

        def drop_one(src, dst, message):
            if (message.type == Heartbeat.type and (src, dst) == (0, 1)
                    and cluster.sim.now >= 5.0 and not lost):
                lost.append(cluster.sim.now)
                return True
            return False

        tap(cluster.network, drop=drop_one)
        cluster.start()
        detector = cluster.detectors[1]
        while cluster.sim.now < 25.0:
            cluster.run(until=cluster.sim.now + 0.01)
            assert detector.suspects() == set()
        assert len(lost) == 1


class TestRefutations:
    """Every suspicion a later arrival refutes is counted, across
    crashes, and totalled in the run's metrics."""

    def test_none_in_a_lossless_run(self):
        cluster, _ = under_load(3, seed=42, until=30.0)
        cluster.run(until=30.0)
        assert cluster.metrics().refutations == 0

    def test_a_leader_restart_refutes_each_followers_suspicion(self):
        cluster, _ = under_load(3, seed=43, until=20.0)
        cluster.run(until=5.0)
        cluster.crash(0)
        cluster.run(until=9.0)
        assert all(detector_of(cluster, i).is_suspected(0) for i in (1, 2))
        assert cluster.metrics().refutations == 0
        cluster.recover(0)
        cluster.run(until=20.0)
        assert [detector_of(cluster, i).refutations
                for i in range(3)] == [0, 1, 1]
        assert cluster.metrics().refutations == 2
        # A run statistic: the follower's own restart keeps its count.
        cluster.crash(1)
        cluster.recover(1)
        cluster.run(until=25.0)
        assert detector_of(cluster, 1).refutations == 1
        assert cluster.metrics().refutations == 2
