#!/usr/bin/env python3
"""Replicated bank under continuous random crash-recovery.

Order sensitivity made concrete: a transfer succeeds only if the source
account has funds *at the moment the command is applied*, so replicas
that disagreed on ordering would disagree on which transfers succeeded
— and money would appear or vanish.  This example hammers a 5-replica
bank with random crashes and recoveries (every node fails at least
conceptually; one node is a paper-style *bad* process that keeps
oscillating) and then audits the books.

Run:  python examples/replicated_bank.py
"""

from repro import (AlternativeConfig, ClusterConfig, NetworkConfig,
                   RandomFaults)
from repro.apps import Bank
from repro.harness import Cluster, verify_run
from repro.workloads import ScheduledWorkload


def main() -> None:
    cluster = Cluster(ClusterConfig(
        n=5, seed=99, protocol="alternative",
        network=NetworkConfig(loss_rate=0.05),
        app_factory=Bank,
        alt=AlternativeConfig(checkpoint_interval=2.0, delta=3,
                              log_unordered=True)))
    cluster.start()

    # Accounts first, and in the books before the storm starts: nothing
    # orders an ``open`` ahead of another sender's transfer, a transfer
    # creates a destination account it does not find, and the late
    # ``open`` is then a no-op — money the audit below counts as
    # deposited would never have been.
    accounts = ("alice", "bob", "carol")
    for replica, account in enumerate(accounts):
        cluster.submit(replica, ("open", account, 1000))
    assert cluster.settle(within=30.0)

    # Then a storm of transfers from every replica.
    plan = []
    for index in range(60):
        src = accounts[index % 3]
        dst = accounts[(index + 1) % 3]
        plan.append((1.0 + 0.2 * index, index % 5,
                     ("transfer", src, dst, 50 + 10 * (index % 7))))
    ScheduledWorkload(plan).install(cluster)

    # Chaos: random crash-recovery, node 4 keeps oscillating forever.
    RandomFaults(mttf=6.0, mttr=1.5, stabilize_at=16.0, seed=99,
                 bad_nodes=[4]).install(cluster.sim, cluster.nodes)

    cluster.run(until=30.0)
    assert cluster.settle(within=270.0)
    verify_run(cluster, good_nodes=[0, 1, 2, 3])

    print("Crash/recovery chaos survived:")
    for node_id, node in cluster.nodes.items():
        tag = " (bad: oscillates forever)" if node_id == 4 else ""
        print(f"  replica {node_id}: {node.crash_count} crashes, "
              f"{node.recovery_count} recoveries{tag}")

    print("\nThe books, per good replica:")
    for replica in (0, 1, 2, 3):
        bank = cluster.app(replica)
        print(f"  replica {replica}: balances={bank.balances}  "
              f"rejected={bank.rejected}")

    banks = [cluster.app(i) for i in (0, 1, 2, 3)]
    assert all(b.balances == banks[0].balances for b in banks)
    assert all(b.rejected == banks[0].rejected for b in banks)
    opened = sum(
        payload[2]
        for mid, payload in cluster.collector.broadcast_payloads.items()
        if payload[0] == "open"
        and mid in cluster.collector.first_delivery)
    assert banks[0].total() == opened
    print(f"\nAudit: identical balances on every good replica; "
          f"{banks[0].total()} == {opened} deposited — money conserved "
          f"through {sum(n.crash_count for n in cluster.nodes.values())} "
          f"crashes.")


if __name__ == "__main__":
    main()
