"""Unit tests for fault injection."""

from __future__ import annotations

import pytest

from repro.chaos.inject import FaultEvent, FaultSchedule, RandomFaults
from repro.runtime import Node, Simulator
from repro.storage.memory import MemoryStorage


def build_nodes(sim, n):
    nodes = {}
    for i in range(n):
        node = Node(sim, i, MemoryStorage())
        node.start()
        nodes[i] = node
    return nodes


class TestFaultSchedule:
    def test_explicit_timeline(self, sim):
        nodes = build_nodes(sim, 2)
        FaultSchedule([(1.0, 0, "crash"), (2.0, 0, "recover")]) \
            .install(sim, nodes)
        sim.run(until=1.5)
        assert not nodes[0].up
        sim.run(until=2.5)
        assert nodes[0].up
        assert nodes[1].crash_count == 0

    def test_chained_builder(self, sim):
        nodes = build_nodes(sim, 1)
        schedule = FaultSchedule().crash(1.0, 0).recover(3.0, 0)
        schedule.install(sim, nodes)
        sim.run(until=2.0)
        assert not nodes[0].up
        sim.run(until=4.0)
        assert nodes[0].up

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, 0, "explode")


class TestRandomFaults:
    def test_good_nodes_stabilize(self, sim):
        nodes = build_nodes(sim, 3)
        faults = RandomFaults(mttf=2.0, mttr=0.5, stabilize_at=20.0, seed=1)
        faults.install(sim, nodes)
        sim.run(until=100.0)
        # After stabilisation every good node must be up and stay up.
        assert all(node.up for node in nodes.values())
        crashes_at_end = sum(n.crash_count for n in nodes.values())
        sim.run(until=200.0)
        assert sum(n.crash_count for n in nodes.values()) == crashes_at_end

    def test_faults_do_occur_before_stabilization(self, sim):
        nodes = build_nodes(sim, 3)
        RandomFaults(mttf=2.0, mttr=0.5, stabilize_at=50.0, seed=2) \
            .install(sim, nodes)
        sim.run(until=50.0)
        assert sum(n.crash_count for n in nodes.values()) > 0

    def test_bad_node_keeps_oscillating(self, sim):
        nodes = build_nodes(sim, 2)
        RandomFaults(mttf=1.0, mttr=0.5, stabilize_at=10.0, seed=3,
                     bad_nodes=[1]).install(sim, nodes)
        sim.run(until=10.0)
        mid_crashes = nodes[1].crash_count
        sim.run(until=100.0)
        assert nodes[1].crash_count > mid_crashes  # still failing
        assert nodes[0].up

    def test_bad_node_die_mode_stays_down(self, sim):
        nodes = build_nodes(sim, 2)
        RandomFaults(mttf=1.0, mttr=0.5, stabilize_at=5.0, seed=4,
                     bad_nodes=[1], bad_mode="die").install(sim, nodes)
        sim.run(until=100.0)
        assert not nodes[1].up
        assert nodes[1].crash_count == 1

    def test_max_faults_budget_respected(self, sim):
        nodes = build_nodes(sim, 1)
        RandomFaults(mttf=0.5, mttr=0.1, stabilize_at=1000.0, seed=5,
                     max_faults_per_node=3).install(sim, nodes)
        sim.run(until=500.0)
        assert nodes[0].crash_count == 3

    def test_bad_mode_validation(self):
        with pytest.raises(ValueError):
            RandomFaults(1.0, 1.0, 1.0, bad_mode="nope")

    def test_deterministic_given_seed(self):
        def crash_times(seed):
            sim = Simulator()
            nodes = build_nodes(sim, 3)
            RandomFaults(mttf=2.0, mttr=0.5, stabilize_at=30.0,
                         seed=seed).install(sim, nodes)
            sim.run(until=30.0)
            return [tuple(n.crash_times) for n in nodes.values()]

        assert crash_times(7) == crash_times(7)
        assert crash_times(7) != crash_times(8)
