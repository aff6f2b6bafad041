"""E8 — Reduction to Chandra-Toueg in the crash-stop model (Section 5.6, 6.1).

Claim: "when crashes are definitive, the protocol reduces to the
Chandra-Toueg's Atomic Broadcast protocol" — i.e. in a crash-stop run
our protocol's behaviour and cost converge to the classic transformation,
modulo the durability it pays for being recovery-capable.

Regenerated evidence: identical crash-stop scenarios (reliable network,
one definitive crash) run over (a) our protocol with durable consensus
and (b) the literal CT baseline (◇S consensus, zero logging).  Delivery
counts, batching and latency line up; the only divergence is the log
column — the price of crash-recovery readiness, which the CT protocol
simply cannot pay back (a recovered CT process would violate safety).
"""

from __future__ import annotations

from common import emit_table, run_verified

from repro.chaos.inject import FaultSchedule
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario
from repro.transport.network import NetworkConfig
from repro.workloads.generators import PoissonWorkload

CASES = [("ours (crash-recovery ready)", "basic"),
         ("Chandra-Toueg baseline", "ct")]


def run_case(protocol, seed=14):
    return run_verified(Scenario(
        cluster=ClusterConfig(n=3, seed=seed, protocol=protocol,
                              network=NetworkConfig(loss_rate=0.0)),
        workload=PoissonWorkload(2.0, 12.0, seed=seed),
        faults=FaultSchedule().crash(8.0, 2),  # definitive crash
        duration=18.0, settle_limit=120.0,
        good_nodes=[0, 1]))


def test_e8_crash_stop_reduction(benchmark):
    rows = []

    def compare():
        rows.clear()
        for label, protocol in CASES:
            result = run_case(protocol)
            metrics = result.metrics
            latency = metrics.latency_summary()
            rows.append([
                label,
                metrics.messages_delivered,
                result.report.rounds,
                latency["p50"], latency["p95"],
                metrics.total_log_ops(),
                metrics.network["sent"],
            ])
        return rows

    benchmark.pedantic(compare, rounds=1, iterations=1)
    emit_table(
        "E8  Crash-stop run: ours vs the Chandra-Toueg transformation",
        ["protocol", "delivered", "rounds", "lat p50", "lat p95",
         "log ops", "msgs sent"],
        rows,
        note="claim: same deliveries and comparable latency; the log "
             "column is the whole difference — durability CT does not "
             "provide")
    ours, ct = rows
    assert ours[1] == ct[1]                 # same messages ordered
    assert ct[5] == 0                       # CT never logs
    assert ours[5] > 0                      # we pay for recoverability
    assert ours[3] < ct[3] * 5              # latency in the same regime
    assert ct[3] < ours[3] * 5
