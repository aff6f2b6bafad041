"""X2 (ablations) — internal design-choice sweeps called out in DESIGN.md.

Not paper claims, but the knobs a practitioner tunes:

* **Gossip period** trades dissemination latency against bandwidth —
  the gossip task disseminates and repairs (Section 4.1).  Under Paxos
  a follower's new message reaches the leader beside its ``Promise``
  while a round is open, so the period bounds how fast a message
  reaches a proposer only after an idle spell or a lost push.
* **Failure-detector period** trades crash-detection (and therefore
  consensus leader fail-over) speed against beat traffic and
  false-suspicion risk: the suspicion timeout is 2¼ periods, so the
  period alone sets how fast Ω fails over.  The Atomic Broadcast layer
  itself never reads the detector.
"""

from __future__ import annotations

from common import emit_table, run_verified

from repro.chaos.inject import FaultSchedule
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario
from repro.transport.network import NetworkConfig
from repro.workloads.generators import PoissonWorkload

GOSSIP_PERIODS = (0.05, 0.25, 1.0)
FD_PERIODS = (0.25, 0.5, 1.0)


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


def test_x2b_fd_period_failover(benchmark):
    rows = []
    crash = 4.0
    # Messages broadcast from the crash until the slowest setting
    # suspects the leader are the ones a fail-over holds up.
    window = crash + 2.25 * max(FD_PERIODS)

    def sweep():
        rows.clear()
        for period in FD_PERIODS:
            result = run_verified(Scenario(
                cluster=ClusterConfig(
                    n=3, seed=20, protocol="basic",
                    network=NetworkConfig(loss_rate=0.03),
                    fd_period=period),
                workload=PoissonWorkload(1.0, 12.0, seed=20),
                # Kill the Ω leader mid-run: ordering stalls until the
                # detector suspects it and consensus fails over.
                faults=FaultSchedule().crash(crash, 0).recover(10.0, 0),
                duration=20.0, settle_limit=300.0))
            latency = result.metrics.latency_summary()
            collector = result.metrics.collector
            stalled = max(collector.first_delivery[mid] - sent
                          for mid, sent in collector.broadcast_times.items()
                          if crash <= sent < window)
            rows.append([period, latency["p50"], latency["p95"],
                         latency["max"], stalled,
                         result.metrics.messages_delivered])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "X2b  Failure-detector period vs leader-crash stall",
        ["fd period", "lat p50", "lat p95", "lat max", "post-crash max",
         "delivered"],
        rows,
        note="the suspicion timeout is 2.25 x fd period, and the worst "
             "latency of a message broadcast after the leader crash "
             "tracks it; steady-state latency is unaffected")
    # The tail of the messages caught in the fail-over window grows with
    # the detection time.
    assert rows[0][4] < rows[-1][4]
