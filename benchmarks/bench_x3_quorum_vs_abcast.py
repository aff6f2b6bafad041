"""X3 (extension) — Quorum replication vs Atomic Broadcast (Section 6.3).

The paper's companion report bridges quorum-based (weighted-voting)
replica management and Atomic Broadcast.  This experiment quantifies the
trade the bridge is about, on identical clusters and networks:

* a **quorum register** (ABD-style, crash-recovery durable) costs two
  majority round-trips per operation — latency independent of load and
  of other clients, but it can only implement read/write objects;
* an **AB-replicated register** costs a consensus round per write —
  more messages and higher latency, but it serialises *arbitrary*
  read-modify-write commands, which static quorums cannot.

The table reports per-write latency and messages for both, across
cluster sizes.  The shape — quorum cheaper per op, AB paying for its
stronger semantics — is the motivation for combining them.
"""

from __future__ import annotations

import random

from common import emit_table

from repro.apps.kvstore import KeyValueStore
from repro.harness.cluster import Cluster, ClusterConfig
from repro.quorum.register import QuorumRegister
from repro.runtime import Node, SimRuntime
from repro.storage.stable import StableStorage
from repro.transport.endpoint import Endpoint
from repro.transport.network import Network, NetworkConfig

SIZES = (3, 5, 7)
WRITES = 20


def quorum_case(n, seed=25):
    sim = SimRuntime()
    net = Network(sim, random.Random(seed), NetworkConfig(loss_rate=0.02))
    nodes, registers = {}, {}
    for i in range(n):
        node = Node(sim, i, StableStorage())
        endpoint = node.add_component(Endpoint(net))
        registers[i] = node.add_component(QuorumRegister(endpoint))
        net.register(node)
        nodes[i] = node
    for node in nodes.values():
        node.start()
    latencies = []

    def client():
        for index in range(WRITES):
            started = sim.now
            yield from registers[0].write(("v", index))
            latencies.append(sim.now - started)
            yield 0.05

    nodes[0].spawn(client(), "client")
    sim.run(until=200.0)
    assert len(latencies) == WRITES
    return (sum(latencies) / len(latencies),
            net.metrics.sent / WRITES)


def abcast_case(n, seed=25):
    cluster = Cluster(ClusterConfig(
        n=n, seed=seed, protocol="basic",
        network=NetworkConfig(loss_rate=0.02),
        app_factory=KeyValueStore))
    cluster.start()
    latencies = []

    def client():
        for index in range(WRITES):
            started = cluster.sim.now
            yield from cluster.abcasts[0].broadcast(
                ("put", "reg", index))
            latencies.append(cluster.sim.now - started)
            yield 0.05

    cluster.nodes[0].spawn(client(), "client")
    cluster.run(until=200.0)
    assert len(latencies) == WRITES
    return (sum(latencies) / len(latencies),
            cluster.network.metrics.sent / WRITES)


def test_x3_quorum_vs_abcast(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for n in SIZES:
            q_lat, q_msgs = quorum_case(n)
            a_lat, a_msgs = abcast_case(n)
            rows.append([n, q_lat, a_lat, q_msgs, a_msgs,
                         a_lat / q_lat])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "X3  Write cost: quorum register vs AB-replicated register",
        ["nodes", "quorum lat", "abcast lat", "quorum msgs/op",
         "abcast msgs/op", "abcast/quorum"],
        rows,
        note="quorums: 2 majority round-trips, read/write objects only; "
             "AB: a consensus round per write, but arbitrary RMW "
             "commands (Section 6.3's trade)")
    for row in rows:
        assert row[1] < row[2]   # quorum writes are cheaper per op
        assert row[3] < row[4]   # and use fewer messages
