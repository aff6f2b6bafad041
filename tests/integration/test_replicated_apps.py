"""Integration tests: replicated applications stay consistent under faults."""

from __future__ import annotations

import pytest

from repro.apps.bank import Bank
from repro.apps.certifier import CertifyingDatabase, make_transaction
from repro.apps.kvstore import KeyValueStore
from repro.chaos.inject import FaultSchedule, RandomFaults
from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import Cluster, ClusterConfig
from repro.transport.network import NetworkConfig
from repro.workloads.generators import ScheduledWorkload


def run_cluster(app_factory, plan, seed=0, protocol="alternative",
                faults=None, duration=30.0, settle=180.0, n=3, alt=None):
    cluster = Cluster(ClusterConfig(
        n=n, seed=seed, protocol=protocol,
        network=NetworkConfig(loss_rate=0.05),
        app_factory=app_factory, alt=alt))
    cluster.start()
    if faults is not None:
        faults.install(cluster.sim, cluster.nodes)
    ScheduledWorkload(plan).install(cluster)
    cluster.run(until=duration)
    assert cluster.settle(within=settle - duration)
    from repro.harness.verify import verify_run
    verify_run(cluster)
    return cluster


class TestReplicatedKV:
    def test_replicas_identical_after_faults(self):
        plan = [(0.5 + 0.2 * j, j % 3, ("put", f"k{j}", j))
                for j in range(30)]
        plan += [(7.0 + 0.2 * j, j % 3, ("append", "log", j))
                 for j in range(10)]
        faults = FaultSchedule().crash(3.0, 1).recover(5.5, 1)
        cluster = run_cluster(KeyValueStore, plan, seed=30, faults=faults)
        states = [cluster.app(i).data for i in range(3)]
        assert states[0] == states[1] == states[2]
        assert states[0]["log"] == tuple(
            sorted(states[0]["log"])) or len(states[0]["log"]) == 10

    def test_order_sensitive_appends_agree(self):
        plan = [(0.5 + 0.05 * j, j % 3, ("append", "seq", f"v{j}"))
                for j in range(24)]
        cluster = run_cluster(KeyValueStore, plan, seed=31)
        logs = [cluster.app(i).get("seq") for i in range(3)]
        assert logs[0] == logs[1] == logs[2]
        assert len(logs[0]) == 24


class TestReplicatedBank:
    def test_money_conserved_across_replicas_and_faults(self):
        plan = [(0.5, 0, ("open", "a", 100)), (0.6, 1, ("open", "b", 100))]
        plan += [(1.0 + 0.15 * j, j % 3,
                  ("transfer", "a" if j % 2 else "b",
                   "b" if j % 2 else "a", 10))
                 for j in range(30)]
        faults = RandomFaults(mttf=6.0, mttr=1.5, stabilize_at=10.0,
                              seed=32)
        # log_unordered (Section 5.4): a submitted command survives its
        # sender's crash, so no deposit/open can vanish.
        cluster = run_cluster(
            Bank, plan, seed=32, faults=faults,
            alt=AlternativeConfig(checkpoint_interval=2.0,
                                  log_unordered=True))
        banks = [cluster.app(i) for i in range(3)]
        assert banks[0].balances == banks[1].balances == banks[2].balances
        # Money conserved: the total equals the sum of the opens that
        # were actually delivered (an open scheduled while its node was
        # down is skipped — a down process cannot invoke A-broadcast).
        delivered_opens = sum(
            payload[2]
            for mid, payload in cluster.collector.broadcast_payloads.items()
            if payload[0] == "open" and mid in cluster.collector.first_delivery)
        assert banks[0].total() == delivered_opens
        assert delivered_opens >= 100  # at least one open made it
        # Same rejections everywhere (order-sensitivity check).
        assert banks[0].rejected == banks[1].rejected == banks[2].rejected


class TestCertifyingDatabase:
    def test_identical_verdicts_across_replicas(self):
        # Conflicting transactions: all read x at version 0, write x.
        plan = [(0.5 + 0.1 * j, j % 3,
                 make_transaction(f"t{j}", [("x", 0)], [("x", j)]))
                for j in range(9)]
        cluster = run_cluster(CertifyingDatabase, plan, seed=33)
        dbs = [cluster.app(i) for i in range(3)]
        assert dbs[0].verdicts == dbs[1].verdicts == dbs[2].verdicts
        # Exactly one of the conflicting writers commits.
        assert sum(dbs[0].verdicts.values()) == 1
        assert dbs[0].committed == 1 and dbs[0].aborted == 8

    def test_disjoint_transactions_all_commit(self):
        plan = [(0.5 + 0.1 * j, j % 3,
                 make_transaction(f"t{j}", [(f"k{j}", 0)], [(f"k{j}", j)]))
                for j in range(12)]
        cluster = run_cluster(CertifyingDatabase, plan, seed=34)
        assert cluster.app(0).committed == 12
        assert cluster.app(0).values == cluster.app(2).values


class TestCheckpointedApps:
    def test_recovered_replica_state_matches_via_checkpoint(self):
        plan = [(0.5 + 0.2 * j, 0, ("put", f"k{j}", j)) for j in range(20)]
        faults = FaultSchedule().crash(3.5, 2).recover(7.0, 2)
        cluster = run_cluster(
            KeyValueStore, plan, seed=35,
            alt=AlternativeConfig(checkpoint_interval=1.0, delta=2),
            faults=faults)
        assert cluster.app(2).data == cluster.app(0).data
        # Checkpointing really happened (the queue was compacted).
        assert cluster.abcasts[0].agreed.checkpointed_count > 0

    def test_basic_protocol_rebuilds_app_by_full_replay(self):
        plan = [(0.5 + 0.2 * j, 0, ("put", f"k{j}", j)) for j in range(15)]
        faults = FaultSchedule().crash(3.0, 1).recover(5.0, 1)
        cluster = run_cluster(KeyValueStore, plan, seed=36,
                              protocol="basic", faults=faults)
        assert cluster.app(1).data == cluster.app(0).data
        assert cluster.abcasts[1].replayed_rounds > 0
