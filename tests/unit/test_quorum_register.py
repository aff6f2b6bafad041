"""Unit tests for the quorum-replicated register (Section 6.3 substrate)."""

from __future__ import annotations

import random

import pytest

from repro.errors import ProcessDown
from repro.quorum.register import QuorumRegister
from repro.runtime import Node, Simulator
from repro.storage.memory import MemoryStorage
from repro.transport.endpoint import Endpoint
from repro.transport.network import Network, NetworkConfig


def build(n=3, seed=0, loss=0.0):
    sim = Simulator()
    net = Network(sim, random.Random(seed),
                  NetworkConfig(loss_rate=loss))
    nodes, registers = {}, {}
    for i in range(n):
        node = Node(sim, i, MemoryStorage())
        endpoint = node.add_component(Endpoint(net))
        registers[i] = node.add_component(QuorumRegister(endpoint))
        net.register(node)
        nodes[i] = node
    for node in nodes.values():
        node.start()
    return sim, nodes, registers


def run_op(sim, node, generator, limit=60.0):
    box = []

    def wrapper():
        result = yield from generator
        box.append(result)

    node.spawn(wrapper(), "op")
    sim.run(until=sim.now + limit)
    assert box, "operation did not complete"
    return box[0]


class TestBasicOperation:
    def test_read_initial_value(self):
        sim, nodes, registers = build()
        value, ts = run_op(sim, nodes[0], registers[0].read())
        assert value is None and ts == (0, -1)

    def test_write_then_read_from_another_node(self):
        sim, nodes, registers = build()
        run_op(sim, nodes[0], registers[0].write("hello"))
        value, ts = run_op(sim, nodes[1], registers[1].read())
        assert value == "hello"
        assert ts == (1, 0)

    def test_writes_get_increasing_timestamps(self):
        sim, nodes, registers = build()
        ts1 = run_op(sim, nodes[0], registers[0].write("a"))
        ts2 = run_op(sim, nodes[1], registers[1].write("b"))
        assert ts2 > ts1
        value, _ = run_op(sim, nodes[2], registers[2].read())
        assert value == "b"

    def test_monotonic_reads_after_read(self):
        """Atomicity via read-repair: once read, never unread."""
        sim, nodes, registers = build(n=5, seed=3)
        run_op(sim, nodes[0], registers[0].write("x"))
        first, _ = run_op(sim, nodes[1], registers[1].read())
        second, _ = run_op(sim, nodes[2], registers[2].read())
        assert first == second == "x"

    def test_operation_on_down_node_rejected(self):
        sim, nodes, registers = build()
        nodes[0].crash()
        with pytest.raises(ProcessDown):
            registers[0]._new_op()


class TestFaultTolerance:
    def test_progress_with_minority_down(self):
        sim, nodes, registers = build(n=5, seed=4)
        nodes[3].crash()
        nodes[4].crash()
        run_op(sim, nodes[0], registers[0].write("majority"))
        value, _ = run_op(sim, nodes[1], registers[1].read())
        assert value == "majority"

    def test_works_over_lossy_network(self):
        sim, nodes, registers = build(seed=5, loss=0.25)
        run_op(sim, nodes[0], registers[0].write("lossy"))
        value, _ = run_op(sim, nodes[2], registers[2].read())
        assert value == "lossy"

    def test_replica_state_survives_crash_recovery(self):
        sim, nodes, registers = build(seed=6)
        run_op(sim, nodes[0], registers[0].write("durable"))
        # Crash every replica; recover; the value must survive (it was
        # logged at a majority before the write returned).
        for node in nodes.values():
            node.crash()
        sim.run(until=sim.now + 1.0)
        for node in nodes.values():
            node.recover()
        value, ts = run_op(sim, nodes[1], registers[1].read())
        assert value == "durable"
        assert ts >= (1, 0)

    def test_recovered_replica_does_not_regress(self):
        """A replica that acked a write must still hold it (or newer)
        after recovery — the logged-before-ack rule."""
        sim, nodes, registers = build(seed=7)
        run_op(sim, nodes[0], registers[0].write("v1"))
        sim.run(until=sim.now + 2.0)  # let the store reach all replicas
        before = registers[2].local_state
        nodes[2].crash()
        nodes[2].recover()
        assert registers[2].local_state == before

    def test_interleaved_writers_converge(self):
        sim, nodes, registers = build(n=5, seed=8, loss=0.1)
        for round_no in range(3):
            for writer in range(3):
                run_op(sim, nodes[writer],
                       registers[writer].write(f"w{writer}-r{round_no}"))
        values = {run_op(sim, nodes[i], registers[i].read())[0]
                  for i in range(5)}
        assert len(values) == 1  # all readers agree on the latest write
