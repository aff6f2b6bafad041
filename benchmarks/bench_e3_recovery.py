"""E3 — Checkpointing shortens recovery (Section 5.1).

Claim: "faster recovery can be obtained at the expense of periodically
checkpointing [k and Agreed] ... that must weight the cost of
checkpointing against the cost of replaying".

Regenerated evidence: a sweep over checkpoint frequency with load
flowing right up to the crash.  The recovering node's *replay work*
(consensus rounds re-executed and stable-storage reads performed during
recovery) falls monotonically as checkpoints become more frequent, while
checkpoint log traffic rises — the exact trade-off the paper describes.
"never" (no checkpoint task) is the basic protocol's full replay from
round 0.

Replay happens against the local log, so it costs (virtual) time only
when a decision is missing locally; the honest cost metric is work, not
simulated seconds.
"""

from __future__ import annotations

from common import emit_table

from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run
from repro.transport.network import NetworkConfig
from repro.workloads.generators import ScheduledWorkload

INTERVALS = [("0.5", 0.5), ("1.0", 1.0), ("2.0", 2.0), ("5.0", 5.0),
             ("never", None)]
CRASH_AT = 12.0


def run_case(interval, seed=8):
    alt = AlternativeConfig(checkpoint_interval=interval, delta=None)
    cluster = Cluster(ClusterConfig(
        n=3, seed=seed, protocol="alternative",
        network=NetworkConfig(loss_rate=0.03), alt=alt))
    cluster.start()
    # Load flows right up to the crash instant.
    plan = [(0.5 + 0.15 * j, j % 3, ("m", j)) for j in range(74)]
    ScheduledWorkload(plan).install(cluster)
    cluster.run(until=CRASH_AT)
    cluster.nodes[1].crash()
    cluster.run(until=CRASH_AT + 0.5)
    reads_before = cluster.nodes[1].storage.metrics.retrievals
    cluster.nodes[1].recover()
    cluster.run(until=CRASH_AT + 60.0)
    assert cluster.settle(within=140.0)
    verify_run(cluster)
    ab = cluster.abcasts[1]
    recovery_reads = (cluster.nodes[1].storage.metrics.retrievals
                      - reads_before)
    ckpt_writes = cluster.nodes[1].storage.metrics.ops_by_prefix.get(
        "ab", 0)
    return (ab.replayed_rounds, recovery_reads, ab.checkpoints_taken,
            ckpt_writes)


def test_e3_recovery_vs_checkpoint_frequency(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for label, interval in INTERVALS:
            replayed, reads, ckpts, writes = run_case(interval)
            rows.append([label, replayed, reads, ckpts, writes])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "E3  Recovery cost vs checkpoint frequency "
        "(74 messages of history, crash at t=12)",
        ["ckpt interval", "rounds replayed", "recovery reads",
         "ckpts taken", "ab log writes"],
        rows,
        note="claim: frequent checkpoints => little replay work, paid "
             "for in checkpoint writes; 'never' = the basic protocol's "
             "full replay from round 0")
    replayed = [row[1] for row in rows]
    assert replayed[0] <= min(replayed)     # most frequent replays least
    assert replayed[-1] == max(replayed)    # no checkpoints replays most
    assert replayed[-1] >= 5 * max(replayed[0], 1)
    writes = [row[4] for row in rows]
    assert writes[0] > writes[-2] > writes[-1]  # the price of frequency
