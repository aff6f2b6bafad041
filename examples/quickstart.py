#!/usr/bin/env python3
"""Quickstart: atomic broadcast in a crash-recovery cluster, in 60 lines.

Builds a 3-process cluster running the paper's basic protocol (Figure 2)
over a lossy network, broadcasts a handful of messages from every
process, crashes one process mid-run, recovers it, and shows that:

* every process delivers exactly the same messages in the same order
  (Total Order + Integrity);
* the recovered process rebuilt its delivery sequence by replaying its
  consensus log (Section 4.2's recovery procedure);
* the run passes the library's built-in verification of all four Atomic
  Broadcast properties.

Run:  python examples/quickstart.py
"""

from repro import ClusterConfig, NetworkConfig
from repro.harness import Cluster, verify_run


def main() -> None:
    cluster = Cluster(ClusterConfig(
        n=3, seed=42, protocol="basic",
        network=NetworkConfig(loss_rate=0.1, duplicate_rate=0.05)))
    cluster.start()

    # Every process A-broadcasts a few messages, interleaved in time.
    for process in range(3):
        for index in range(4):
            when = 0.5 + 0.3 * index + 0.1 * process
            cluster.sim.schedule(when, cluster.submit, process,
                                 f"p{process}-m{index}")

    # Crash process 2 mid-run; more traffic flows while it is down.
    cluster.sim.schedule(2.0, cluster.crash, 2)
    cluster.sim.schedule(2.5, cluster.submit, 0, "sent-while-2-was-down")
    cluster.sim.schedule(5.0, cluster.recover, 2)

    cluster.run(until=30.0)
    assert cluster.settle(within=90.0), "cluster did not quiesce"

    sequences = {p: [m.payload for m in ab.deliver_sequence()]
                 for p, ab in cluster.abcasts.items()}
    print("Delivery sequences (13 messages each):")
    for process, sequence in sequences.items():
        recovered = " (crashed & recovered)" if process == 2 else ""
        print(f"  process {process}{recovered}:")
        print(f"    {sequence}")
    assert sequences[0] == sequences[1] == sequences[2]
    print("\nAll three processes delivered the SAME order — including the "
          "one that\ncrashed and replayed its history from stable storage.")

    report = verify_run(cluster)
    print(f"\nVerified: Validity, Integrity, Termination, Total Order "
          f"({len(report.canonical)} messages over {report.rounds} "
          f"consensus rounds).")

    metrics = cluster.metrics()
    print(f"Log operations by layer: {metrics.log_ops_by_prefix()} "
          f"\n  ('ab' is one incarnation bump per start/recovery — the "
          f"protocol itself adds\n   zero log operations beyond the "
          f"consensus black box, Section 4.3)")


if __name__ == "__main__":
    main()
