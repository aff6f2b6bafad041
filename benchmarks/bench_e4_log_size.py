"""E4 — Application-level checkpoints bound log size (Section 5.2).

Claim: "a checkpoint of the application state can substitute the
associated prefix of the delivered message log ... this not only offers
a shorter replay phase but also prevents the number of entries in the
logs from growing indefinitely."

Regenerated evidence: a replicated KV store absorbing update streams of
increasing length.  Without application checkpoints, stable-storage
residency (live bytes on disk) grows linearly with history; with the
A-checkpoint upcall registered, residency stays flat — the checkpoint
*contains* the history.  The explicit Agreed suffix shows the same
contrast in message counts.
"""

from __future__ import annotations

from common import emit_table

from repro.apps.counter import SequenceRecorder
from repro.apps.kvstore import KeyValueStore
from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run
from repro.transport.network import NetworkConfig
from repro.workloads.generators import ScheduledWorkload

HISTORIES = (30, 60, 120)


def run_case(history, app_checkpoint, seed=9):
    # The KV store overwrites a small key set, so its state stays small
    # no matter how long the history — the case Section 5.2 motivates.
    # SequenceRecorder (state == full history) is the control.
    app_factory = KeyValueStore if app_checkpoint else SequenceRecorder
    alt = AlternativeConfig(checkpoint_interval=1.0, delta=3)
    cluster = Cluster(ClusterConfig(
        n=3, seed=seed, protocol="alternative",
        network=NetworkConfig(loss_rate=0.02), alt=alt,
        app_factory=app_factory))
    # Only the KV store registers a *bounded* A-checkpoint; the recorder
    # checkpoints its entire (growing) history.
    cluster.start()
    plan = [(0.5 + 0.1 * j, j % 3, ("put", f"k{j % 8}", j))
            for j in range(history)]
    ScheduledWorkload(plan).install(cluster)
    cluster.run(until=0.5 + 0.1 * history + 5.0)
    assert cluster.settle(within=200.0 - cluster.sim.now)
    verify_run(cluster)
    node = cluster.nodes[0]
    ab = cluster.abcasts[0]
    return (node.storage.total_bytes_stored(),
            len(ab.agreed.sequence()),
            ab.agreed.checkpointed_count)


def test_e4_log_size_bounded_by_app_checkpoints(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for history in HISTORIES:
            flat_bytes, flat_suffix, flat_ckpt = run_case(history, True)
            grow_bytes, grow_suffix, grow_ckpt = run_case(history, False)
            rows.append([history, flat_bytes, grow_bytes,
                         flat_suffix, grow_suffix])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "E4  Stable-storage residency vs history length",
        ["history (msgs)", "bytes (bounded A-ckpt)",
         "bytes (growing state)", "suffix (bounded)", "suffix (growing)"],
        rows,
        note="claim: an application checkpoint that 'contains' the "
             "delivered prefix keeps the durable footprint flat; "
             "checkpointing a state that embeds full history grows "
             "linearly")
    bounded = [row[1] for row in rows]
    growing = [row[2] for row in rows]
    # Growing state scales with history...
    assert growing[-1] > growing[0] * 2
    # ...while the bounded app's footprint stays within a narrow band.
    assert bounded[-1] < bounded[0] * 2
    assert bounded[-1] < growing[-1]
