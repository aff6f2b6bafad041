"""End-to-end overload robustness: saturation, gray failures, accounting.

The overload-safety contract, verified through the real stacks:

* every admission attempt is accounted — ``accepted + rejected ==
  offered`` exactly, across retries and gray failures;
* every accepted broadcast is eventually delivered (admission control
  must not become silent message loss);
* every bounded queue's high-water mark respects its configured bound;
* the whole story is a pure function of the seed.
"""

from __future__ import annotations

import pytest

from repro.chaos.engine import ChaosConfig, explore, run_seed
from repro.errors import OverloadError, VerificationError
from repro.flow.controller import FlowConfig
from repro.flow.scenario import OverloadReport, overload_scenario
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.scenario import check_reproducible, run_scenario
from repro.harness.verify import verify_overload_safety
from repro.transport.stubborn import StubbornConfig
from repro.workloads.generators import PoissonWorkload


class TestSaturationScenario:
    def test_invariants_hold_under_ten_x_overload(self):
        report = OverloadReport(run_scenario(overload_scenario(seed=0)))
        # Exact accounting: the runner already cross-checked the
        # workload's counters against the controllers; re-assert the
        # arithmetic on the report itself.
        assert report.accepted + report.rejected == report.offered
        assert report.rejected == sum(report.rejected_by_reason.values())
        assert report.accepted > 0 and report.rejected > 0
        # >10x overload: the burst offers 120 against a bucket that
        # sustains at most rate + burst (= 8) in its window.
        assert report.rejected > 10 * report.accepted / 2
        # Bounded queues, observed not assumed.
        assert report.backlog_high_water <= 16
        assert report.backlog_overflows >= 0
        # The gray failure actually fired.
        assert report.slow_writes > 0
        # Every accepted broadcast was delivered (Termination in the
        # runner's verify_run; the totals must agree).
        assert report.delivered == report.accepted

    def test_bit_identical_across_same_seed_runs(self):
        result = check_reproducible(overload_scenario(seed=0))
        assert result.signature() == \
            run_scenario(overload_scenario(seed=0)).signature()

    def test_different_seeds_differ(self):
        # Not a tautology: if the seed were ignored the scenario would
        # collapse to one timeline and reproducibility would be vacuous.
        a = run_scenario(overload_scenario(seed=0)).signature()
        b = run_scenario(overload_scenario(seed=1)).signature()
        assert a != b


class TestOverloadChaosFamily:
    def test_overload_sweep_passes_and_exercises_gray_failures(self):
        report = explore(ChaosConfig(seeds=6, overload=True))
        assert report.ok, [f.describe() for f in report.failures]
        totals = report.totals()
        # The family must actually exercise the new machinery.
        assert totals.get("flow_accepted", 0) > 0
        assert totals.get("overload_reject", 0) > 0
        assert totals.get("slow_write", 0) > 0
        assert totals.get("limp", 0) + totals.get("slow_disk", 0) > 0
        assert totals["delivered"] > 0

    def test_overload_seed_reruns_identically(self):
        config = ChaosConfig(seeds=3, overload=True)
        first = run_seed(config, 0)
        second = run_seed(config, 0)
        assert first.ok and second.ok
        assert first.counters == second.counters
        assert first.params == second.params

    def test_legacy_family_unchanged_by_the_overload_knob(self):
        # overload=False is the frozen default family: no flow params
        # are drawn and no flow counters appear.
        result = run_seed(ChaosConfig(seeds=1), 0)
        assert result.ok
        assert "flow_rate" not in result.params
        assert "flow_accepted" not in result.counters


class TestVerifyOverloadSafety:
    def _throttled_cluster(self):
        cluster = Cluster(ClusterConfig(
            n=3, seed=0, stubborn=StubbornConfig(window=4, max_backlog=8),
            flow=FlowConfig(rate=4.0, burst=4)))
        cluster.start()
        offered = rejected = 0
        for i in range(10):
            offered += 1
            try:
                cluster.submit(0, f"v-{i}")
            except OverloadError:
                rejected += 1
        assert cluster.settle(within=240.0)
        return cluster, offered, rejected

    def test_passes_on_a_clean_run(self):
        cluster, offered, rejected = self._throttled_cluster()
        verify_overload_safety(cluster, offered=offered, rejected=rejected)

    def test_fails_on_offered_mismatch(self):
        cluster, offered, rejected = self._throttled_cluster()
        with pytest.raises(VerificationError):
            verify_overload_safety(cluster, offered=offered + 1,
                                   rejected=rejected)

    def test_fails_on_rejected_mismatch(self):
        cluster, offered, rejected = self._throttled_cluster()
        with pytest.raises(VerificationError):
            verify_overload_safety(cluster, offered=offered,
                                   rejected=rejected + 1)

    def test_fails_on_corrupted_controller_accounting(self):
        cluster, offered, rejected = self._throttled_cluster()
        # A rejection counted without its reason breaks the per-node
        # cross-check even when no scenario totals are supplied.
        cluster.flows[0].rejected += 1
        with pytest.raises(VerificationError):
            verify_overload_safety(cluster)

    def test_fails_on_backlog_bound_violation(self):
        cluster, offered, rejected = self._throttled_cluster()
        assert cluster.stubborn is not None
        cluster.stubborn.metrics.backlog_high_water = 999
        with pytest.raises(VerificationError):
            verify_overload_safety(cluster)


class TestWorkloadBackpressure:
    def test_open_loop_workload_retries_to_exact_accounting(self):
        cluster = Cluster(ClusterConfig(
            n=3, seed=2, flow=FlowConfig(rate=2.0, burst=2)))
        cluster.start()
        workload = PoissonWorkload(rate_per_node=20.0, duration=1.0, seed=5)
        workload.install(cluster)
        cluster.run(until=30.0)
        assert cluster.settle(within=240.0)
        assert workload.pending_retries == 0
        assert workload.rejected_attempts > 0  # backpressure engaged
        accepted = sum(f.accepted for f in cluster.flows.values())
        assert workload.offered == accepted + workload.rejected_attempts
        assert workload.submitted == accepted
        verify_overload_safety(cluster, offered=workload.offered,
                               rejected=workload.rejected_attempts)

    def test_workload_counters_inert_without_flow(self):
        cluster = Cluster(ClusterConfig(n=3, seed=2))
        cluster.start()
        workload = PoissonWorkload(rate_per_node=20.0, duration=1.0, seed=5)
        workload.install(cluster)
        cluster.run(until=30.0)
        assert workload.rejected_attempts == 0
        assert workload.retries == 0
        assert workload.gave_up == 0
        assert workload._backoff_rng is None  # no extra randomness drawn
