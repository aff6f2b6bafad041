"""X2 (ablations) — internal design-choice sweeps called out in DESIGN.md.

Not paper claims, but the knobs a practitioner tunes:

* **Gossip period** trades dissemination latency against bandwidth —
  the gossip task is the protocol's only dissemination mechanism
  (Section 4.1), so its period lower-bounds how fast a message reaches a
  proposer.
* **Failure-detector timeout** trades crash-detection (and therefore
  consensus leader fail-over) speed against false-suspicion risk; the
  Atomic Broadcast layer itself never reads it.
"""

from __future__ import annotations

from common import emit_table, run_verified

from repro.chaos.inject import FaultSchedule
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario
from repro.transport.network import NetworkConfig
from repro.workloads.generators import PoissonWorkload

GOSSIP_PERIODS = (0.05, 0.25, 1.0)
FD_TIMEOUTS = (1.0, 2.0, 4.0)


def test_x2a_gossip_period(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for period in GOSSIP_PERIODS:
            result = run_verified(Scenario(
                cluster=ClusterConfig(
                    n=3, seed=19, protocol="basic",
                    network=NetworkConfig(loss_rate=0.1),
                    gossip_interval=period),
                workload=PoissonWorkload(1.5, 10.0, seed=19),
                duration=15.0, settle_limit=200.0))
            latency = result.metrics.latency_summary()
            gossip_msgs = result.metrics.network.get("sent", 0)
            by_type = result.cluster.network.metrics.by_type
            rows.append([period, latency["p50"], latency["p95"],
                         by_type.get("ab.gossip", 0),
                         result.metrics.messages_delivered])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "X2a  Gossip period: latency vs bandwidth",
        ["gossip period", "lat p50", "lat p95", "gossip msgs",
         "delivered"],
        rows,
        note="faster gossip => lower latency at proportionally higher "
             "background traffic; correctness unaffected")
    assert rows[0][3] > rows[-1][3]          # more gossip when faster
    assert rows[0][2] <= rows[-1][2] * 2.5   # and no worse tail latency


def test_x2b_fd_timeout_failover(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for timeout in FD_TIMEOUTS:
            result = run_verified(Scenario(
                cluster=ClusterConfig(
                    n=3, seed=20, protocol="basic",
                    network=NetworkConfig(loss_rate=0.03),
                    fd_timeout=timeout),
                workload=PoissonWorkload(1.0, 12.0, seed=20),
                # Kill the Ω leader mid-run: ordering stalls until the
                # detector suspects it and consensus fails over.
                faults=FaultSchedule().crash(4.0, 0).recover(10.0, 0),
                duration=20.0, settle_limit=300.0))
            latency = result.metrics.latency_summary()
            rows.append([timeout, latency["p50"], latency["p95"],
                         latency["max"],
                         result.metrics.messages_delivered])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "X2b  Failure-detector timeout vs leader-crash stall",
        ["fd timeout", "lat p50", "lat p95", "lat max", "delivered"],
        rows,
        note="the worst-case latency spike after a leader crash tracks "
             "the suspicion timeout; steady-state latency is unaffected")
    # The tail (messages caught in the fail-over window) grows with the
    # detection timeout.
    assert rows[0][3] < rows[-1][3]
