"""E11 — Non-blocking liveness despite bad processes (Sections 1, 7).

Claim: "as long as the underlying Consensus is live, the Atomic
Broadcast protocol does not block good processes despite the behavior of
bad processes."

Regenerated evidence: runs with 0, 1 and 2 oscillating *bad* processes
(they crash and recover forever) in clusters sized so the good processes
still form the consensus majority.  Good-process throughput stays in the
same regime across the sweep — the bad processes cost some bandwidth and
latency but never block the ordering pipeline.
"""

from __future__ import annotations

from common import emit_table, run_verified

from repro.chaos.inject import RandomFaults
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario
from repro.transport.network import NetworkConfig
from repro.workloads.generators import PoissonWorkload

# (label, n, bad node ids): good majority preserved in every case.
CASES = [("0 bad / 5 nodes", 5, ()),
         ("1 bad / 5 nodes", 5, (4,)),
         ("2 bad / 5 nodes", 5, (3, 4))]


def run_case(n, bad, seed=16):
    good = [i for i in range(n) if i not in bad]
    result = run_verified(Scenario(
        cluster=ClusterConfig(n=n, seed=seed, protocol="basic",
                              network=NetworkConfig(loss_rate=0.03)),
        # Only good nodes offer load: bad-process submissions may be
        # legitimately lost, which would muddy the throughput signal.
        workload=PoissonWorkload(
            1.0, 15.0, seed=seed,
            payload_fn=lambda node, idx: ("m", node, idx)),
        faults=RandomFaults(mttf=3.0, mttr=1.0, stabilize_at=20.0,
                            seed=seed, bad_nodes=list(bad)),
        duration=30.0, settle_limit=400.0, good_nodes=good))
    return result


def test_e11_nonblocking_liveness(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for label, n, bad in CASES:
            result = run_case(n, bad)
            metrics = result.metrics
            bad_crashes = sum(metrics.node_stats[i]["crashes"]
                              for i in bad)
            latency = metrics.latency_summary()
            rows.append([label, metrics.messages_delivered,
                         metrics.throughput, latency["p50"],
                         bad_crashes])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "E11  Good-process progress despite oscillating bad processes",
        ["configuration", "delivered", "throughput", "lat p50",
         "bad-node crashes"],
        rows,
        note="claim: bad processes cannot block good ones while the "
             "good majority keeps consensus live")
    baseline = rows[0][2]
    for row in rows[1:]:
        assert row[1] > 0
        assert row[2] > baseline / 4  # same regime, not blocked
