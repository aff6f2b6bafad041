"""E6 — Batching and the early-return A-broadcast (Section 5.4).

Two claims:

1. "For better throughput ... propose batches of messages to a single
   instance of Consensus."  The protocol batches naturally: everything
   in the Unordered set rides the next proposal.  As offered load grows,
   messages-per-round grows and per-message consensus cost falls — so
   ordered throughput scales far better than rounds do.
2. "In order to return earlier, the A-broadcast interface needs to log
   the Unordered set."  With ``log_unordered`` the client's A-broadcast
   returns as soon as the message is durable, not when it is ordered.
"""

from __future__ import annotations

from common import emit_table, run_verified

from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.scenario import Scenario
from repro.transport.network import NetworkConfig
from repro.workloads.generators import PoissonWorkload

RATES = (0.5, 2.0, 8.0, 24.0)


def test_e6a_batching_throughput(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for rate in RATES:
            result = run_verified(Scenario(
                cluster=ClusterConfig(
                    n=3, seed=11, protocol="alternative",
                    network=NetworkConfig(loss_rate=0.02),
                    alt=AlternativeConfig(checkpoint_interval=2.0)),
                workload=PoissonWorkload(rate, 12.0, seed=11),
                duration=16.0, settle_limit=200.0))
            delivered = result.metrics.messages_delivered
            rounds = max(result.report.rounds, 1)
            latency = result.metrics.latency_summary()
            rows.append([rate * 3, delivered, rounds,
                         delivered / rounds,
                         result.metrics.throughput,
                         latency["p50"], latency["p95"]])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "E6a  Batching: consensus rounds amortise across offered load",
        ["offered (msg/s)", "delivered", "rounds", "msgs/round",
         "throughput", "lat p50", "lat p95"],
        rows,
        note="claim: load rides into fewer, fatter consensus instances; "
             "throughput scales while rounds barely grow")
    batching = [row[3] for row in rows]
    assert batching[-1] > 4 * batching[0]   # batching factor grows
    throughput = [row[4] for row in rows]
    assert throughput[-1] > 10 * throughput[0]


def _return_latency(log_unordered, seed=12):
    """Mean virtual time an A-broadcast call blocks its caller."""
    alt = AlternativeConfig(checkpoint_interval=2.0,
                            log_unordered=log_unordered)
    cluster = Cluster(ClusterConfig(
        n=3, seed=seed, protocol="alternative",
        network=NetworkConfig(loss_rate=0.02), alt=alt))
    cluster.start()
    waits = []

    def client(node_id):
        for index in range(10):
            yield 0.4
            started = cluster.sim.now
            yield from cluster.abcasts[node_id].broadcast(
                ("c", node_id, index))
            waits.append(cluster.sim.now - started)

    for node_id in range(3):
        cluster.nodes[node_id].spawn(client(node_id), "client")
    cluster.run(until=40.0)
    assert cluster.settle(within=80.0)
    return sum(waits) / len(waits), len(waits)


def test_e6b_early_return_with_logged_unordered(benchmark):
    rows = []

    def compare():
        rows.clear()
        for label, flag in (("wait-until-ordered", False),
                            ("log-and-return (5.4)", True)):
            mean_wait, calls = _return_latency(flag)
            rows.append([label, calls, mean_wait])
        return rows

    benchmark.pedantic(compare, rounds=1, iterations=1)
    emit_table(
        "E6b  A-broadcast return latency (client-observed)",
        ["mode", "calls", "mean return latency"],
        rows,
        note="claim: logging the Unordered set lets A-broadcast return "
             "on durability instead of waiting for the ordering round")
    ordered_wait = rows[0][2]
    logged_wait = rows[1][2]
    assert logged_wait < ordered_wait / 10
