"""E5 — State transfer lets a late process skip missed rounds (Section 5.3).

Claim: "a process that has been down for a long period may have missed
many Consensus and may require a long time to catch-up ... [with a state
message it] effectively skips the Consensus instances it has missed.
The amount of de-synchronisation that triggers a state transfer can be
tuned through the variable Δ."

Regenerated evidence: one node sleeps through a burst of rounds; we
sweep Δ (including "off").  With state transfer enabled, the returning
node is handed the decided batches of the rounds it missed and skips
their instances — catch-up takes a bounded number of replayed instances
regardless of outage length.  With
Δ=off it must re-run every missed instance.  Larger Δ trades fewer state
messages (bytes) for more replay.
"""

from __future__ import annotations

from common import catch_up_probe, emit_table

from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run
from repro.transport.network import NetworkConfig
from repro.workloads.generators import ScheduledWorkload

DELTAS = [("1", 1), ("2", 2), ("4", 4), ("8", 8), ("off", None)]
MISSED_MESSAGES = 60


def run_case(delta, seed=10):
    alt = AlternativeConfig(checkpoint_interval=2.0, delta=delta)
    cluster = Cluster(ClusterConfig(
        n=3, seed=seed, protocol="alternative",
        network=NetworkConfig(loss_rate=0.03), alt=alt))
    cluster.start()
    cluster.run(until=1.0)
    cluster.nodes[2].crash()
    plan = [(1.5 + 0.1 * j, j % 2, ("m", j))
            for j in range(MISSED_MESSAGES)]
    ScheduledWorkload(plan).install(cluster)
    cluster.run(until=10.0)
    target_rounds = cluster.abcasts[0].k
    cluster.nodes[2].recover()
    k_at_recovery = cluster.abcasts[2].k  # restored from its checkpoint
    catch_up = catch_up_probe(cluster, 2, target_rounds, limit=120.0)
    assert cluster.settle(within=400.0 - cluster.sim.now)
    verify_run(cluster)
    ab = cluster.abcasts[2]
    # Rounds the late node had to re-execute through consensus (instead
    # of skipping via a state message).
    rerun = max(0, ab.k - k_at_recovery - ab.rounds_skipped)
    state_msgs = cluster.network.metrics.by_type.get("ab.state", 0)
    return (catch_up, ab.rounds_skipped, rerun,
            ab.state_transfers_adopted, state_msgs, target_rounds)


def test_e5_state_transfer_catch_up(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for label, delta in DELTAS:
            (catch_up, skipped, replayed, adopted, state_msgs,
             target) = run_case(delta)
            rows.append([label, target, catch_up, skipped, replayed,
                         adopted, state_msgs])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "E5  Catch-up after a long outage vs Δ "
        f"({MISSED_MESSAGES} messages missed)",
        ["Δ", "rounds missed", "catch-up time", "rounds skipped",
         "rounds replayed", "state adoptions", "state msgs sent"],
        rows,
        note="claim: with state transfer the late process skips the "
             "missed instances; Δ=off forces it to re-run every one")
    by_delta = {row[0]: row for row in rows}
    # State transfer actually skipped rounds for small Δ...
    assert by_delta["1"][3] > 0
    assert by_delta["2"][3] > 0
    # ...and Δ=off replayed (re-ran) far more instances than Δ=1.
    assert by_delta["off"][4] > by_delta["1"][4]
    assert by_delta["off"][5] == 0 and by_delta["off"][6] == 0
