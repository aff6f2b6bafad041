#!/usr/bin/env python3
"""Replicated key-value store with application-level checkpoints.

The paper's motivating use case (Section 1): disseminate updates with
Atomic Broadcast so every replica applies the same writes in the same
order.  This example uses the *alternative* protocol (Figures 3–4) with
everything switched on:

* periodic durable checkpoints of ``(k, Agreed)`` (Section 5.1),
* the A-checkpoint upcall, so the KV state replaces the delivered
  message log and the stable-storage footprint stays bounded
  (Section 5.2),
* Δ-triggered state transfer: a replica that sleeps through a long
  burst catches up by adopting a peer's state instead of re-running
  every missed consensus instance (Section 5.3),
* logged Unordered set: a client's write survives even if its replica
  crashes immediately after accepting it (Section 5.4).

Run:  python examples/replicated_kv_store.py
"""

from repro import AlternativeConfig, ClusterConfig, NetworkConfig
from repro.apps import KeyValueStore
from repro.harness import Cluster, verify_run


def main() -> None:
    cluster = Cluster(ClusterConfig(
        n=3, seed=7, protocol="alternative",
        network=NetworkConfig(loss_rate=0.05),
        app_factory=KeyValueStore,
        alt=AlternativeConfig(checkpoint_interval=2.0, delta=2,
                              log_unordered=True)))
    cluster.start()

    # Phase 1: normal operation — writes from every replica.
    for index in range(10):
        cluster.sim.schedule(0.5 + 0.2 * index, cluster.submit,
                             index % 3, ("put", f"user:{index}", index))

    # Phase 2: replica 2 crashes; a burst of writes happens without it.
    cluster.sim.schedule(3.0, cluster.crash, 2)
    for index in range(30):
        cluster.sim.schedule(3.5 + 0.1 * index, cluster.submit,
                             index % 2, ("put", f"burst:{index}", index))
    # Order-sensitive append: replicas diverge instantly if they disagree.
    for index in range(5):
        cluster.sim.schedule(7.0 + 0.1 * index, cluster.submit,
                             0, ("append", "audit-log", f"entry-{index}"))

    # Phase 3: replica 2 returns and catches up (state transfer).
    cluster.sim.schedule(9.0, cluster.recover, 2)

    cluster.run(until=30.0)
    assert cluster.settle(within=170.0)
    verify_run(cluster)

    print("Replica states after crash, burst and recovery:")
    for replica in range(3):
        store = cluster.app(replica)
        print(f"  replica {replica}: {len(store)} keys, "
              f"version {store.version}, "
              f"audit-log = {store.get('audit-log')}")
    assert cluster.app(0).data == cluster.app(1).data == \
        cluster.app(2).data
    print("\nAll replicas identical.")

    late = cluster.abcasts[2]
    print(f"\nHow replica 2 caught up (Section 5.3):")
    print(f"  state transfers adopted : {late.state_transfers_adopted}")
    print(f"  consensus rounds skipped: {late.rounds_skipped}")
    print(f"  rounds replayed locally : {late.replayed_rounds}")

    ab0 = cluster.abcasts[0]
    print(f"\nLog-size control (Section 5.2):")
    print(f"  messages delivered      : {ab0.delivered_count()}")
    print(f"  held as explicit suffix : {len(ab0.agreed.sequence())}")
    print(f"  absorbed into A-ckpt    : {ab0.agreed.checkpointed_count}")
    print(f"  stable-storage residency: "
          f"{cluster.nodes[0].storage.total_bytes_stored()} bytes "
          f"(bounded, does not grow with history)")


if __name__ == "__main__":
    main()
