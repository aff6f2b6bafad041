"""E1 — Protocol correctness under crash-recovery (Sections 2.2, 5.6).

Claim: both protocols satisfy Validity, Integrity, Termination and Total
Order in the crash-recovery model (properties P1–P7 underpin the proof).

Regenerated evidence: a matrix of seeded runs — per protocol, with
random crash/recovery injection — all of which pass the harness's
post-hoc property verification.  The table reports what each run
survived (crashes, recoveries, rounds) and that it verified.
"""

from __future__ import annotations

from common import emit_table, run_verified

from repro.chaos.inject import RandomFaults
from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario
from repro.transport.network import NetworkConfig
from repro.workloads.generators import PoissonWorkload

SEEDS = (1, 2, 3)
PROTOCOLS = ("basic", "alternative")


def run_case(protocol: str, seed: int):
    return run_verified(Scenario(
        cluster=ClusterConfig(
            n=3, seed=seed, protocol=protocol,
            network=NetworkConfig(loss_rate=0.05, duplicate_rate=0.02),
            alt=AlternativeConfig(checkpoint_interval=2.0, delta=3)),
        workload=PoissonWorkload(1.5, 12.0, seed=seed),
        faults=RandomFaults(mttf=8.0, mttr=2.0, stabilize_at=15.0,
                            seed=seed),
        duration=25.0, settle_limit=200.0))


def test_e1_correctness_matrix(benchmark):
    rows = []

    def full_matrix():
        rows.clear()
        for protocol in PROTOCOLS:
            for seed in SEEDS:
                result = run_case(protocol, seed)
                stats = result.metrics.node_stats
                rows.append([
                    protocol, seed,
                    result.metrics.messages_broadcast,
                    result.metrics.messages_delivered,
                    result.report.rounds,
                    sum(stats[i]["crashes"] for i in stats),
                    sum(stats[i]["recoveries"] for i in stats),
                    "yes",
                ])
        return rows

    benchmark.pedantic(full_matrix, rounds=1, iterations=1)
    emit_table(
        "E1  Atomic Broadcast properties under crash-recovery",
        ["protocol", "seed", "bcast", "delivered", "rounds",
         "crashes", "recoveries", "verified"],
        rows,
        note="verified = Validity + Integrity + Termination + Total Order "
             "checked post-hoc on the full run")
    assert all(row[-1] == "yes" for row in rows)
