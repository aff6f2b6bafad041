"""Unit tests for the workload generators."""

from __future__ import annotations

import random

from repro.harness.cluster import Cluster, ClusterConfig
from repro.transport.network import NetworkConfig
from repro.workloads.generators import (BurstyWorkload, ClosedLoopWorkload,
                                        PoissonWorkload, ScheduledWorkload,
                                        SkewedWorkload)


def build(n=3, seed=0):
    cluster = Cluster(ClusterConfig(
        n=n, seed=seed, protocol="basic", network=NetworkConfig()))
    cluster.start()
    return cluster


class TestPoisson:
    def test_generates_arrivals_for_every_node(self):
        cluster = build()
        workload = PoissonWorkload(rate_per_node=3.0, duration=10.0, seed=1)
        plan = workload.arrivals(cluster)
        senders = {node for _, node in plan}
        assert senders == {0, 1, 2}
        assert all(0.5 <= t < 10.5 for t, _ in plan)

    def test_deterministic_per_seed(self):
        cluster = build()
        one = PoissonWorkload(2.0, 10.0, seed=5).arrivals(cluster)
        two = PoissonWorkload(2.0, 10.0, seed=5).arrivals(cluster)
        assert one == two
        assert one != PoissonWorkload(2.0, 10.0, seed=6).arrivals(cluster)

    def test_install_submits_and_counts(self):
        cluster = build(seed=2)
        workload = PoissonWorkload(rate_per_node=2.0, duration=5.0, seed=2)
        planned = workload.install(cluster)
        cluster.run(until=6.0)
        assert workload.submitted == planned
        assert len(cluster.collector.broadcast_times) == planned

    def test_submissions_to_down_nodes_skipped(self):
        cluster = build(seed=3)
        workload = PoissonWorkload(rate_per_node=5.0, duration=5.0, seed=3)
        planned = workload.install(cluster)
        cluster.nodes[1].crash()
        cluster.run(until=6.0)
        assert workload.submitted < planned


class TestBursty:
    def test_burst_shape(self):
        cluster = build()
        workload = BurstyWorkload(burst_size=5, burst_spacing=2.0,
                                  bursts=3, seed=1)
        plan = workload.arrivals(cluster)
        assert len(plan) == 15
        # Each burst comes from a single sender.
        by_burst = [plan[i:i + 5] for i in range(0, 15, 5)]
        for burst in by_burst:
            assert len({node for _, node in burst}) == 1


class TestSkewed:
    def test_low_ids_send_more(self):
        cluster = build(n=3)
        workload = SkewedWorkload(total_messages=600, duration=10.0,
                                  skew=1.5, seed=2)
        plan = workload.arrivals(cluster)
        counts = {i: 0 for i in range(3)}
        for _, node in plan:
            counts[node] += 1
        assert counts[0] > counts[1] > counts[2]
        assert sum(counts.values()) == 600


class TestScheduled:
    def test_explicit_plan_executes(self):
        cluster = build(seed=4)
        workload = ScheduledWorkload([(0.5, 0, "a"), (0.7, 1, "b")])
        assert workload.install(cluster) == 2
        cluster.run(until=10.0)
        payloads = {p for p in
                    cluster.collector.broadcast_payloads.values()}
        assert payloads == {"a", "b"}

    def test_one_submission_is_pending_and_each_lands_on_its_time(self):
        cluster = build(seed=4)
        cluster.run(until=0.25)
        rng = random.Random(7)
        times = [rng.uniform(0.0, 6.0) for _ in range(300)]
        times += times[:20]                         # ties keep plan order
        plan = [(when, j % 3, ("p", j)) for j, when in enumerate(times)]
        workload = ScheduledWorkload(plan)
        submitted = []
        workload._submit = lambda cluster, node_id, payload: \
            submitted.append((cluster.sim.now, node_id, payload))
        before = cluster.sim.pending()
        start = cluster.sim.now
        assert workload.install(cluster) == len(plan)
        assert cluster.sim.pending() == before + 1
        cluster.run(until=10.0)
        expected = sorted(plan, key=lambda entry: entry[0])
        assert submitted == [(start + when, node_id, payload)
                             for when, node_id, payload in expected]


class TestClosedLoop:
    def test_sustains_window_and_finishes(self):
        cluster = build(seed=5)
        workload = ClosedLoopWorkload(window=2, messages_per_client=3)
        workload.install(cluster)
        cluster.run(until=60.0)
        # 3 nodes x 2 clients x 3 messages
        assert workload.submitted == 18
        assert len(cluster.collector.first_delivery) == 18
