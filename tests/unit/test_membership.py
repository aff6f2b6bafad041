"""Unit tests for the membership layer: View, the reconfiguration codec
and the per-node ViewManager."""

from __future__ import annotations

import pytest

from repro.consensus.paxos import Decide, PaxosConsensus
from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.errors import SimulationError
from repro.harness.cluster import Cluster, ClusterConfig
from repro.membership import View, parse_reconfig, reconfig_payload
from repro.transport.message import unpack


class TestView:
    def test_members_sorted_and_deduped(self):
        view = View(0, [3, 1, 2, 1])
        assert view.members == (1, 2, 3)

    def test_initial_is_epoch_zero(self):
        assert View.initial(range(3)) == View(0, [0, 1, 2])

    def test_immutable(self):
        view = View.initial(range(3))
        with pytest.raises(AttributeError):
            view.epoch = 7

    def test_negative_epoch_rejected(self):
        with pytest.raises(SimulationError):
            View(-1, [0])

    def test_empty_view_rejected(self):
        with pytest.raises(SimulationError):
            View(0, [])

    def test_join_advances_epoch(self):
        view = View.initial(range(3)).apply("join", 3)
        assert view == View(1, [0, 1, 2, 3])

    def test_leave_and_evict_remove(self):
        view = View.initial(range(3))
        assert view.apply("leave", 2).members == (0, 1)
        assert view.apply("evict", 0).members == (1, 2)

    def test_noop_commands_keep_epoch(self):
        view = View.initial(range(3))
        assert view.apply("join", 1) is view
        assert view.apply("leave", 9) is view

    def test_last_member_cannot_leave(self):
        view = View(4, [5])
        assert view.apply("evict", 5) is view

    def test_unknown_op_rejected(self):
        with pytest.raises(SimulationError):
            View.initial(range(2)).apply("swap", 1)

    def test_quorum_is_majority(self):
        assert View.initial(range(3)).quorum_size == 2
        assert View.initial(range(4)).quorum_size == 3
        assert View(1, [0, 1, 5, 6]).quorum_size == 3

    def test_ballot_stride_covers_member_ids(self):
        # Contiguous ids: stride == n (the pre-membership ballot spacing).
        assert View.initial(range(5)).ballot_stride == 5
        # Sparse ids: stride must exceed the largest member id so
        # counter * stride + node_id stays leader-disjoint.
        assert View(3, [0, 1, 6]).ballot_stride == 7

    def test_plain_roundtrip(self):
        view = View(2, [0, 4, 7])
        assert View.from_plain(view.to_plain()) == view


class TestReconfigCodec:
    def test_roundtrip(self):
        for op in ("join", "leave", "evict"):
            assert parse_reconfig(reconfig_payload(op, 5)) == (op, 5)

    def test_ordinary_payloads_pass_through(self):
        for payload in (None, 7, "hello", "reconfig:", "reconfig:fire:1",
                        "reconfig:join:x", ("reconfig", "join", 1)):
            assert parse_reconfig(payload) is None

    def test_unknown_op_rejected(self):
        with pytest.raises(SimulationError):
            reconfig_payload("restart", 1)


class TestViewManager:
    def _cluster(self, n=3):
        cluster = Cluster(ClusterConfig(n=n, seed=0,
                                        protocol="alternative"))
        cluster.start()
        return cluster

    def test_every_stack_boots_with_initial_view(self):
        cluster = self._cluster()
        for manager in cluster.views.values():
            assert manager.view == View.initial(range(3))

    def test_ordered_reconfig_installs_everywhere(self):
        cluster = self._cluster()
        cluster.submit_reconfig("leave", 2)
        cluster.sim.run(until=5.0)
        for node_id in (0, 1):
            assert cluster.views[node_id].view == View(1, [0, 1])

    def test_replayed_command_not_applied_twice(self):
        manager = self._cluster().views[0]
        command = AppMessage(MessageId(1, 1, 1),
                             reconfig_payload("leave", 2))
        manager.on_deliver(command)
        assert manager.view.epoch == 1
        # Recovery replay re-delivers the same agreed prefix: the
        # applied-id set, not command no-op-ness, must stop the re-run
        # (a second leave(2) is a no-op anyway; make it observable by
        # re-adding 2 first through a *different* command).
        manager.on_deliver(AppMessage(MessageId(1, 1, 2),
                                      reconfig_payload("join", 2)))
        assert manager.view.epoch == 2
        manager.on_deliver(command)
        assert manager.view.epoch == 2  # replay skipped, not re-applied

    def test_view_survives_crash_recovery(self):
        cluster = self._cluster()
        cluster.submit_reconfig("leave", 2)
        cluster.sim.run(until=5.0)
        cluster.crash(0)
        cluster.recover(0)
        cluster.sim.run(until=6.0)
        assert cluster.views[0].view == View(1, [0, 1])

    def test_adopt_plain_stale_view_keeps_local(self):
        manager = self._cluster().views[0]
        manager.on_deliver(AppMessage(MessageId(1, 1, 1),
                                      reconfig_payload("leave", 2)))
        manager.adopt_plain((0, (0, 1, 2), ((9, 1, 1),)))
        assert manager.view.epoch == 1
        # ... but the stale sender's applied-id knowledge is merged.
        assert MessageId(9, 1, 1) in manager._applied

    def test_adopt_plain_newer_view_installs(self):
        manager = self._cluster().views[0]
        manager.adopt_plain((2, (0, 1), ((1, 1, 1), (1, 1, 2))))
        assert manager.view == View(2, [0, 1])
        assert manager.adoptions == 1

    def test_multisend_targets_include_non_member_sender(self):
        manager = self._cluster().views[0]
        assert manager.multisend_targets(1) == (0, 1, 2)
        assert manager.multisend_targets(7) == (0, 1, 2, 7)


class TestADroppedMemberLearnsTheDecisionThatDropsIt:
    def test_decide_goes_to_the_members_of_its_instance(self):
        """A reconfiguration decided in ``k`` drops node 2, and the
        leader's ``Decide(k)`` still goes to it.  The announce is a task
        of its own, so it may run after the layer above has installed
        the new view and the instance's driver has forgotten ``k``'s
        pinned members; here it runs 0.2 s late, and only the members
        captured at the decision still name node 2."""
        cluster = Cluster(ClusterConfig(n=3, seed=0, protocol="basic"))
        leader = cluster.nodes[0]
        spawn = leader.spawn

        def late(generator, name):
            if name != "paxos-decide":
                return spawn(generator, name)
            cluster.sim.schedule(0.2, spawn, generator, name)
        leader.spawn = late
        decides = []
        send = cluster.network.send

        def recording(src, dst, frame):
            for message in unpack(frame):
                if type(message) is Decide and src == 0:
                    decides.append((message.k, dst))
            send(src, dst, frame)
        cluster.network.send = recording
        cluster.start()
        for j in range(4):
            cluster.sim.schedule(0.1 + 0.2 * j, cluster.submit, 0, ("m", j))
        commands = []
        cluster.sim.schedule(
            0.5, lambda: commands.append(cluster.remove_node(2)))
        cluster.run(until=3.0)
        assert cluster.views[0].view == View(1, [0, 1])
        consensus = leader.get_component(PaxosConsensus)
        decided = {k: consensus.decided_value(k) for k in range(10)}
        (k,) = [k for k, value in decided.items() if value is not None
                and commands[0].id in {getattr(item, "id", item)
                                       for item in value}]
        assert (k, 2) in decides

class TestClusterConfigValidation:
    def test_sequencer_outside_member_set_rejected(self):
        with pytest.raises(SimulationError):
            ClusterConfig(n=3, protocol="sequencer", sequencer_id=3)

    def test_sequencer_member_accepted(self):
        config = ClusterConfig(n=3, protocol="sequencer", sequencer_id=2)
        assert config.sequencer_id == 2

    def test_other_protocols_ignore_sequencer_id(self):
        # The knob only constrains the sequencer baseline.
        ClusterConfig(n=3, protocol="basic", sequencer_id=99)
