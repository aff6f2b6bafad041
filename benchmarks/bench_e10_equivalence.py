"""E10 — Consensus ⇔ Atomic Broadcast equivalence (Section 6.1).

Claim: "to propose a value a process atomically broadcasts it; the first
value to be delivered can be chosen as the decided value.  Thus, both
problems are equivalent in asynchronous crash-recovery systems."

Regenerated evidence: the reduction of :mod:`repro.core.equivalence`
run for many instances across seeds and a crash: every instance reaches
uniform agreement on a proposed value, and a recovered process re-learns
its decisions purely from replay — zero log operations of the reduction's
own.
"""

from __future__ import annotations

import random

from common import emit_table

from repro.consensus.paxos import PaxosConsensus
from repro.core.basic import BasicAtomicBroadcast
from repro.core.equivalence import ConsensusFromAtomicBroadcast
from repro.fdetect.heartbeat import HeartbeatDetector
from repro.fdetect.omega import OmegaOracle
from repro.runtime import Node, Simulator
from repro.storage.memory import MemoryStorage
from repro.transport.endpoint import Endpoint
from repro.transport.network import Network, NetworkConfig

SEEDS = (21, 22, 23)
INSTANCES = 5


def run_case(seed):
    sim = Simulator()
    net = Network(sim, random.Random(seed), NetworkConfig(loss_rate=0.05))
    nodes, reductions = {}, {}
    for i in range(3):
        node = Node(sim, i, MemoryStorage())
        endpoint = node.add_component(Endpoint(net))
        detector = node.add_component(HeartbeatDetector(endpoint))
        omega = node.add_component(OmegaOracle(detector))
        consensus = node.add_component(PaxosConsensus(endpoint, omega))
        abcast = node.add_component(
            BasicAtomicBroadcast(endpoint, consensus))
        reductions[i] = node.add_component(
            ConsensusFromAtomicBroadcast(abcast))
        net.register(node)
        nodes[i] = node
    for node in nodes.values():
        node.start()
    for k in range(INSTANCES):
        for i in range(3):
            sim.schedule(0.5 + 0.3 * k, reductions[i].propose, k,
                         f"s{seed}-k{k}-v{i}")
    sim.run(until=30.0)
    nodes[2].crash()
    sim.run(until=32.0)
    nodes[2].recover()
    sim.run(until=90.0)
    agreed = valid = relearned = 0
    for k in range(INSTANCES):
        values = [reductions[i].decided_value(k) for i in range(3)]
        if values[0] is not None and values.count(values[0]) == 3:
            agreed += 1
        if values[0] is not None and values[0].startswith(f"s{seed}-k{k}"):
            valid += 1
        if values[2] is not None:
            relearned += 1
    return agreed, valid, relearned


def test_e10_equivalence(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for seed in SEEDS:
            agreed, valid, relearned = run_case(seed)
            rows.append([seed, INSTANCES, agreed, valid, relearned])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "E10  Consensus built from Atomic Broadcast (the reverse reduction)",
        ["seed", "instances", "uniform agreement", "validity",
         "re-learned after recovery"],
        rows,
        note="claim: AB => consensus with zero extra logging; recovered "
             "processes re-derive decisions from the replayed sequence")
    for row in rows:
        assert row[2] == INSTANCES
        assert row[3] == INSTANCES
        assert row[4] == INSTANCES
