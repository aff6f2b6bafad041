"""Unit tests for the crash-recovery process (node) model."""

from __future__ import annotations

import pytest

from repro.errors import ProcessDown, SimulationError
from repro.metrics.collector import MetricsCollector
from repro.runtime import Node, NodeComponent
from repro.storage.disk import SimDisk
from repro.storage.stable import StableStorage
from repro.transport.message import WireMessage


class Probe(NodeComponent):
    """Records lifecycle hook invocations."""

    def __init__(self):
        super().__init__()
        self.starts = 0
        self.crashes = 0

    def on_start(self):
        self.starts += 1

    def on_crash(self):
        self.crashes += 1


class Replaying(NodeComponent):
    """A component that reports the end of its recovery replay."""

    replays = True


class Ping(WireMessage):
    type = "test.ping"
    fields = ("value",)

    def __init__(self, value):
        self.value = value


def make_node(sim, node_id=0):
    return Node(sim, node_id, StableStorage())


class TestLifecycle:
    def test_starts_up_and_runs_hooks(self, sim):
        node = make_node(sim)
        probe = node.add_component(Probe())
        node.start()
        assert node.up
        assert probe.starts == 1

    def test_double_start_rejected(self, sim):
        node = make_node(sim)
        node.start()
        with pytest.raises(SimulationError):
            node.start()

    def test_crash_marks_down_and_runs_hooks(self, sim):
        node = make_node(sim)
        probe = node.add_component(Probe())
        node.start()
        node.crash()
        assert not node.up
        assert probe.crashes == 1

    def test_crash_when_down_is_noop(self, sim):
        node = make_node(sim)
        probe = node.add_component(Probe())
        node.start()
        node.crash()
        node.crash()
        assert probe.crashes == 1

    def test_recover_reruns_start_hooks(self, sim):
        node = make_node(sim)
        probe = node.add_component(Probe())
        node.start()
        node.crash()
        node.recover()
        assert node.up
        assert probe.starts == 2  # initialisation + recovery share one path

    def test_recover_without_start_rejected(self, sim):
        node = make_node(sim)
        with pytest.raises(SimulationError):
            node.recover()

    def test_recover_when_up_is_noop(self, sim):
        node = make_node(sim)
        probe = node.add_component(Probe())
        node.start()
        node.recover()
        assert probe.starts == 1

    def test_component_after_start_rejected(self, sim):
        node = make_node(sim)
        node.start()
        with pytest.raises(SimulationError):
            node.add_component(Probe())

    def test_get_component_by_class(self, sim):
        node = make_node(sim)
        probe = node.add_component(Probe())
        assert node.get_component(Probe) is probe
        with pytest.raises(KeyError):
            node.get_component(Node)

    def test_crash_recover_counters(self, sim):
        collector = sim.sink = MetricsCollector()
        node = make_node(sim)
        node.start()
        sim.run(until=1.0)
        node.crash()
        sim.run(until=2.0)
        node.recover()
        assert node.crash_count == 1
        assert node.recovery_count == 1
        assert collector.crash_times == {node.node_id: [1.0]}
        assert node.recovery_times == [2.0]


class TestVolatility:
    def test_crash_kills_node_tasks(self, sim):
        node = make_node(sim)
        node.start()
        trace = []

        def body():
            while True:
                trace.append(sim.now)
                yield 1.0

        node.spawn(body(), "loop")
        sim.run(until=2.5)
        node.crash()
        sim.run(until=10.0)
        assert trace == [0.0, 1.0, 2.0]

    def test_spawn_on_down_node_rejected(self, sim):
        node = make_node(sim)
        node.start()
        node.crash()
        with pytest.raises(ProcessDown):
            node.spawn(iter(()), "t")

    def test_crash_clears_handlers(self, sim):
        node = make_node(sim)
        node.start()
        got = []
        node.register_handler("test.ping", lambda m, s: got.append(m.value))
        assert node.deliver(Ping(1), sender=9)
        node.crash()
        node.recover()
        assert not node.deliver(Ping(2), sender=9)  # handler gone
        assert got == [1]

    def test_delivery_to_down_node_lost(self, sim):
        node = make_node(sim)
        node.start()
        node.register_handler("test.ping", lambda m, s: None)
        node.crash()
        assert not node.deliver(Ping(1), sender=0)

    def test_storage_survives_crash(self, sim):
        node = make_node(sim)
        node.start()
        node.storage.log("key", "durable")
        node.crash()
        node.recover()
        assert node.storage.retrieve("key") == "durable"

    def test_a_crash_reopens_a_store_from_its_disk(self, sim):
        node = Node(sim, 0, StableStorage(SimDisk()))
        node.start()
        node.storage.log("key", "durable")
        before = node.storage
        node.crash()
        assert node.storage is not before
        node.recover()
        assert node.storage.retrieve("key") == "durable"
        assert node.storage.metrics.log_ops == 0   # replay is not a log

    def test_only_live_tasks_are_kept(self, sim):
        node = make_node(sim)
        node.start()
        order = []

        def short(tag, steps):
            for _ in range(steps):
                yield 1.0
            order.append(tag)

        def forever(tag):
            try:
                while True:
                    yield 1.0
            finally:
                order.append(tag)

        node.spawn(forever("first"), "first")
        for index in range(100):
            node.spawn(short(index, 1 + index % 3), f"short{index}")
        node.spawn(forever("last"), "last")
        assert len(node._tasks) == 102
        sim.run(until=10.0)
        assert len(order) == 100
        assert [task.name for task in node._tasks] == \
            ["n0:first", "n0:last"]
        node.crash()                    # killed in spawn order
        assert order[-2:] == ["first", "last"] and not node._tasks


class TestUptimeAccounting:
    def test_uptime_excludes_down_periods(self, sim):
        node = make_node(sim)
        node.start()
        sim.run(until=3.0)
        node.crash()
        sim.run(until=5.0)
        node.recover()
        sim.run(until=6.0)
        assert node.uptime() == pytest.approx(4.0)

    def test_recovery_duration_via_mark(self, sim):
        node = make_node(sim)
        node.add_component(Replaying())
        node.start()
        node.crash()
        sim.run(until=2.0)
        node.recover()
        sim.run(until=2.5)
        assert node.recovery_durations == []     # the replay is running
        sim.run(until=3.0)
        node.mark_recovery_complete()
        node.mark_recovery_complete()            # only the first counts
        assert node.recovery_durations == [pytest.approx(1.0)]

    def test_without_a_replaying_component_recovery_ends_with_its_hooks(
            self, sim):
        node = make_node(sim)
        node.add_component(Probe())
        node.start()
        node.crash()
        sim.run(until=2.0)
        node.recover()
        assert node.recovery_durations == [0.0]
