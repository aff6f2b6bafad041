#!/usr/bin/env python3
"""Deferred-update replicated database (Section 6.2).

Implements the Pedone-Guerraoui-Schiper termination protocol the paper
relates to: transactions execute *locally* at one replica against its
snapshot, and only at commit time is the transaction (read set with
versions + write set) pushed through Atomic Broadcast.  Every replica
then certifies transactions in delivery order — identical order means
identical commit/abort verdicts and identical databases, with no atomic
commitment protocol anywhere.

The example runs conflicting and non-conflicting transactions from
different replicas concurrently, crashes a replica mid-stream, and
shows that all replicas agree on every verdict.

Run:  python examples/deferred_update_db.py
"""

from repro import AlternativeConfig, ClusterConfig, NetworkConfig
from repro.apps import CertifyingDatabase, make_transaction
from repro.harness import Cluster, verify_run


def client_session(cluster, replica: int, txn_names, keys, delay: float):
    """A client that executes transactions locally, then certifies them."""

    def body():
        yield delay
        for name, key in zip(txn_names, keys):
            database = cluster.app(replica)
            value, version = database.read(key)      # local snapshot read
            yield 0.3                                 # "thinking time"
            new_value = (value or 0) + 1
            cluster.submit(replica, make_transaction(
                name, reads=[(key, version)], writes=[(key, new_value)]))
            yield 0.2

    cluster.nodes[replica].spawn(body(), f"client@{replica}")


def main() -> None:
    cluster = Cluster(ClusterConfig(
        n=3, seed=5, protocol="alternative",
        network=NetworkConfig(loss_rate=0.05),
        app_factory=CertifyingDatabase,
        alt=AlternativeConfig(checkpoint_interval=2.0, delta=2)))
    cluster.start()

    # Replicas 0 and 1 hammer the SAME key (conflicts guaranteed);
    # replica 2 works on its own key (never conflicts).
    cluster.sim.schedule(0.0, client_session, cluster, 0,
                         [f"r0-t{i}" for i in range(6)],
                         ["hot"] * 6, 0.5)
    cluster.sim.schedule(0.0, client_session, cluster, 1,
                         [f"r1-t{i}" for i in range(6)],
                         ["hot"] * 6, 0.55)
    cluster.sim.schedule(0.0, client_session, cluster, 2,
                         [f"r2-t{i}" for i in range(6)],
                         ["cold"] * 6, 0.5)

    # Crash replica 1 mid-stream; it recovers and re-certifies by replay.
    cluster.sim.schedule(2.0, cluster.crash, 1)
    cluster.sim.schedule(4.0, cluster.recover, 1)

    cluster.run(until=30.0)
    assert cluster.settle(within=170.0)
    verify_run(cluster)

    print("Certification outcome per replica:")
    for replica in range(3):
        database = cluster.app(replica)
        print(f"  replica {replica}: committed={database.committed} "
              f"aborted={database.aborted} "
              f"abort-rate={database.abort_rate:.0%} "
              f"hot={database.values.get('hot')} "
              f"cold={database.values.get('cold')}")

    databases = [cluster.app(i) for i in range(3)]
    assert all(db.verdicts == databases[0].verdicts for db in databases)
    assert all(db.values == databases[0].values for db in databases)

    hot_commits = sum(1 for name, ok in databases[0].verdicts.items()
                      if ok and not name.startswith("r2"))
    cold_commits = sum(1 for name, ok in databases[0].verdicts.items()
                       if ok and name.startswith("r2"))
    print(f"\nIdentical verdicts everywhere. Contended key 'hot': "
          f"{hot_commits} commits (stale snapshots aborted); "
          f"uncontended 'cold': {cold_commits} commits.")
    print("Total order did the work of an atomic commitment protocol "
          "(Section 6.2).")


if __name__ == "__main__":
    main()
