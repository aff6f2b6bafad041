"""Unit tests for the heartbeat failure detector and the Ω oracle."""

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


class TestHeartbeatDetector:
    def test_no_suspicions_in_stable_run(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        cluster.run(until=20.0)
        for detector in cluster.detectors.values():
            assert detector.suspects() == set()

    def test_completeness_crashed_node_suspected(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        cluster.run(until=5.0)
        cluster.nodes[2].crash()
        cluster.run(until=15.0)
        assert 2 in cluster.detectors[0].suspects()
        assert 2 in cluster.detectors[1].suspects()

    def test_self_never_suspected(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        cluster.run(until=15.0)
        for node_id, detector in cluster.detectors.items():
            assert node_id not in detector.suspects()

    def test_recovered_node_rehabilitated(self, mini_cluster):
        cluster = mini_cluster(n=3).start()
        cluster.run(until=5.0)
        cluster.nodes[2].crash()
        cluster.run(until=15.0)
        cluster.nodes[2].recover()
        cluster.run(until=25.0)
        assert 2 not in cluster.detectors[0].suspects()

    def test_timeout_adapts_on_false_suspicion(self, mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=5.0)
        detector = cluster.detectors[0]
        base = detector.timeout_for(1)
        cluster.nodes[1].crash()
        cluster.run(until=12.0)   # 0 suspects 1
        cluster.nodes[1].recover()
        cluster.run(until=20.0)   # heartbeat refutes the suspicion
        assert detector.timeout_for(1) > base

    def test_epoch_increases_across_recoveries(self, mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=3.0)
        first_epoch = cluster.detectors[0].epoch_of(1)
        assert first_epoch >= 1
        cluster.nodes[1].crash()
        cluster.run(until=4.0)
        cluster.nodes[1].recover()
        cluster.run(until=8.0)
        assert cluster.detectors[0].epoch_of(1) > first_epoch

    def test_epoch_is_durable(self, mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=2.0)
        epoch_before = cluster.detectors[1].epoch
        cluster.nodes[1].crash()
        cluster.nodes[1].recover()
        assert cluster.detectors[1].epoch == epoch_before + 1


class TestLivenessRidesOnTraffic:
    """Any arrival is an ALIVE; explicit beats go only to silent links;
    suspicion falls at the deadline."""

    def test_idle_stack_beats_every_period_and_suspects_nobody(
            self, mini_cluster):
        # Detector + Ω + an idle Paxos: nothing else ever speaks.
        cluster = mini_cluster(n=3)
        seen = tap(cluster.network)
        cluster.start()
        cluster.run(until=20.0)
        period = cluster.detectors[0].period
        for src in range(3):
            for dst in range(3):
                times = [when for when, s, d in beats(seen)
                         if (s, d) == (src, dst)]
                if src == dst:
                    assert times == []      # never to itself
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
            [(src, dst) for src in range(3) for dst in range(3)
             if src != dst]
        assert beats(seen, since=0.001) == []
        for node in cluster.nodes.values():
            assert node.get_component(HeartbeatDetector).suspects() == set()

    def test_thinned_digests_leave_every_link_one_gossip_a_tick(self):
        # n=9: the digest goes to 4 of 8 peers a tick, the gossip to all.
        n = 9
        cluster = Cluster(ClusterConfig(n=n, seed=4))
        seen = tap(cluster.network)
        cluster.start()
        for j in range(20):
            cluster.sim.schedule(0.5 + 0.3 * j, cluster.submit, j % n, j)
        cluster.run(until=10.0)
        interval = cluster.config.gossip_interval
        ticks = {}
        for when, src, dst, message in seen:
            if message.type == "ab.gossip":
                ticks.setdefault((src, round(when / interval)), []).append(dst)
        assert {tick for _, tick in ticks} == set(range(41))
        for (src, _), dsts in ticks.items():
            assert sorted(dsts) == [dst for dst in range(n) if dst != src]
        assert beats(seen, since=0.001) == []
        for node in cluster.nodes.values():
            assert node.get_component(HeartbeatDetector).suspects() == set()

    def test_any_message_type_refutes_a_suspicion(self, mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=3.0)
        detector = cluster.detectors[0]
        base = detector.timeout_for(1)
        cluster.nodes[0].register_handler(Note.type, lambda m, s: None)
        cluster.network.partition(0, 1)
        cluster.run(until=8.0)
        assert detector.is_suspected(1)
        cluster.nodes[0].deliver(Note(), 1)
        assert not detector.is_suspected(1)
        assert detector.timeout_for(1) == base + detector.timeout_increment
        # Heard while trusted: fresher evidence, no further widening.
        cluster.nodes[0].deliver(Note(), 1)
        assert detector.timeout_for(1) == base + detector.timeout_increment

    def test_an_unconsumed_or_own_message_is_not_evidence(self,
                                                          mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=3.0)
        detector = cluster.detectors[0]
        cluster.network.partition(0, 1)
        cluster.run(until=8.0)
        assert detector.is_suspected(1)
        assert not cluster.nodes[0].deliver(Note(), 1)   # no handler
        assert detector.is_suspected(1)
        heard = detector._last_heard[0]
        cluster.nodes[0].register_handler(Note.type, lambda m, s: None)
        cluster.nodes[0].deliver(Note(), 0)              # loopback
        assert detector._last_heard[0] == heard

    def test_suspicion_falls_at_the_deadline(self, mini_cluster):
        cluster = mini_cluster(n=2).start()
        detector = cluster.detectors[0]
        fired = []

        def watch():
            while True:
                yield detector.changed.wait()
                fired.append((cluster.sim.now, detector._last_heard[1]))

        cluster.nodes[0].spawn(watch(), "watch")
        crash_at = 5.3          # between two of node 0's period ticks
        cluster.run(until=crash_at)
        cluster.nodes[1].crash()
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
            drop=lambda src, dst, message: (src, dst) == (1, 0))
        cluster.start()
        cluster.run(until=15.0)
        assert cluster.detectors[0].suspects() == {1}
        assert cluster.detectors[1].suspects() == set()

    def test_first_words_after_recovery_are_a_beat_with_the_new_epoch(
            self):
        cluster = Cluster(ClusterConfig(n=3, seed=4))
        seen = tap(cluster.network)
        cluster.start()
        cluster.run(until=5.0)
        cluster.nodes[1].crash()
        cluster.run(until=6.0)
        assert cluster.nodes[1].last_sent == {}     # the clock is volatile
        cluster.nodes[1].recover()
        recovered_at = cluster.sim.now
        cluster.run(until=9.0)
        epoch = cluster.nodes[1].get_component(HeartbeatDetector).epoch
        assert epoch == 2
        for dst in (0, 2):
            first = next(message for when, src, d, message in seen
                         if when >= recovered_at and (src, d) == (1, dst))
            assert (first.type, first.epoch) == (Heartbeat.type, epoch)
            assert cluster.nodes[dst].get_component(
                HeartbeatDetector).epoch_of(1) == epoch


class TestHeartbeatGrayFailures:
    """The detector under gray failures: nodes that are slow or lossy
    but never actually down.  Eventual accuracy demands the detector
    first (wrongly) suspects, then rehabilitates and widens the
    timeout so the same slowness stops producing suspicions."""

    def test_sustained_loss_burst_suspect_then_rehabilitate(self,
                                                            mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=5.0)
        detector = cluster.detectors[0]
        base = detector.timeout_for(1)
        assert detector.suspects() == set()
        # Sustained burst: nearly every heartbeat is lost for a long
        # stretch — far longer than the suspicion timeout.
        cluster.network.config.loss_rate = 0.97
        cluster.run(until=30.0)
        assert 1 in detector.suspects()
        cluster.network.config.loss_rate = 0.0
        cluster.run(until=60.0)
        # The peer was never down: the suspicion must be withdrawn and
        # the refutation must have widened the adaptive timeout.
        assert 1 not in detector.suspects()
        assert detector.timeout_for(1) > base

    def test_limping_peer_suspected_then_rehabilitated(self, mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=5.0)
        detector = cluster.detectors[0]
        base = detector.timeout_for(1)
        # The suspicion window is transient (it closes as soon as the
        # first delayed heartbeat lands), so sample it with a probe
        # task instead of asserting at one instant.
        suspected_at = []

        def probe():
            while True:
                if 1 in detector.suspects():
                    suspected_at.append(cluster.sim.now)
                yield 0.1

        cluster.nodes[0].spawn(probe(), "probe")
        # Limping node: every message to/from node 1 takes 3 extra
        # seconds, beyond the 2s initial timeout.  The *transition*
        # opens a heartbeat gap; once the pipeline fills, heartbeats
        # resume at their period and refute the suspicion.
        cluster.network.set_node_delay(1, 3.0)
        cluster.run(until=25.0)
        assert suspected_at, "limp onset never produced a suspicion"
        assert 1 not in detector.suspects()
        assert detector.timeout_for(1) > base
        cluster.network.clear_node_delay(1)
        cluster.run(until=40.0)
        assert detector.suspects() == set()

    def test_timeout_widens_monotonically_across_bursts(self, mini_cluster):
        cluster = mini_cluster(n=2).start()
        cluster.run(until=5.0)
        detector = cluster.detectors[0]
        observed = [detector.timeout_for(1)]
        for burst in range(3):
            cluster.network.config.loss_rate = 0.97
            cluster.run(until=cluster.sim.now + 25.0)
            cluster.network.config.loss_rate = 0.0
            cluster.run(until=cluster.sim.now + 25.0)
            assert 1 not in detector.suspects()
            observed.append(detector.timeout_for(1))
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
