"""Unit tests for the flow-control layer (admission + backoff)."""

from __future__ import annotations

import random

import pytest

from repro.errors import OverloadError
from repro.flow.controller import BackoffPolicy, FlowConfig, FlowController
from repro.harness.cluster import Cluster, ClusterConfig


class TestFlowConfig:
    def test_default_config_is_inert(self):
        config = FlowConfig()
        assert not config.enabled

    def test_rate_enables(self):
        assert FlowConfig(rate=5.0).enabled
        assert FlowConfig(max_unordered=8).enabled

    def test_burst_defaults_to_rate(self):
        assert FlowConfig(rate=8.0).burst == 8.0
        assert FlowConfig(rate=0.5).burst == 1.0  # floor: one token

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(rate=0.0)
        with pytest.raises(ValueError):
            FlowConfig(burst=4)  # burst without a rate is meaningless
        with pytest.raises(ValueError):
            FlowConfig(rate=1.0, burst=0)
        with pytest.raises(ValueError):
            FlowConfig(max_unordered=0)
        with pytest.raises(ValueError):
            FlowConfig(queue_bound=0)
        with pytest.raises(ValueError):
            FlowConfig(max_send_buffer=0)


class TestFlowController:
    def test_inert_controller_admits_everything(self):
        controller = FlowController(0, FlowConfig())
        for i in range(1000):
            assert controller.try_admit(float(i) * 0.001) is None
        assert controller.accepted == 1000
        assert controller.rejected == 0

    def test_token_bucket_depletes_and_refills(self):
        controller = FlowController(0, FlowConfig(rate=2.0, burst=2))
        assert controller.try_admit(0.0) is None
        assert controller.try_admit(0.0) is None
        assert controller.try_admit(0.0) == "rate"  # bucket empty
        # Half a second refills one token at rate 2/s.
        assert controller.try_admit(0.5) is None
        assert controller.try_admit(0.5) == "rate"

    def test_burst_caps_accumulation(self):
        controller = FlowController(0, FlowConfig(rate=10.0, burst=3))
        # A long idle period must not bank more than ``burst`` tokens.
        for _ in range(3):
            assert controller.try_admit(100.0) is None
        assert controller.try_admit(100.0) == "rate"

    def test_credit_bound_rejects_on_outstanding(self):
        controller = FlowController(0, FlowConfig(max_unordered=4))
        assert controller.try_admit(0.0, outstanding=3) is None
        assert controller.try_admit(0.0, outstanding=4) == "credit"
        assert controller.rejected_by_reason == {"credit": 1}

    def test_admission_is_a_pure_function_of_times(self):
        times = [0.0, 0.1, 0.1, 0.4, 1.0, 1.05, 2.5, 2.5, 2.5, 9.0]

        def run():
            controller = FlowController(0, FlowConfig(rate=2.0, burst=2))
            return [controller.try_admit(t) for t in times]

        assert run() == run()

    def test_snapshot_shape(self):
        controller = FlowController(0, FlowConfig(rate=1.0, burst=1,
                                                  max_unordered=1))
        controller.try_admit(0.0)
        controller.try_admit(0.0)
        controller.try_admit(0.0, outstanding=5)
        snap = controller.snapshot()
        assert snap == {"accepted": 1, "rejected": 2,
                        "rejected_by_reason": {"credit": 1, "rate": 1}}
        assert controller.offered == 3


class TestBackoffPolicy:
    def test_schedule_is_deterministic_and_bounded(self):
        policy = BackoffPolicy(base=0.05, factor=2.0, max_delay=2.0,
                               jitter=0.5, max_retries=8)
        delays = [policy.delay(a, random.Random(42)) for a in range(8)]
        again = [policy.delay(a, random.Random(42)) for a in range(8)]
        assert delays == again
        assert all(d is not None for d in delays)
        # Jitter 0.5 bounds every delay within +/-50% of the nominal.
        for attempt, delay in enumerate(delays):
            nominal = min(2.0, 0.05 * 2.0 ** attempt)
            assert 0.5 * nominal <= delay <= 1.5 * nominal

    def test_retry_budget_exhausts(self):
        policy = BackoffPolicy(max_retries=3)
        rng = random.Random(0)
        assert policy.delay(2, rng) is not None
        assert policy.delay(3, rng) is None
        assert policy.delay(99, rng) is None

    def test_no_jitter_is_exact_exponential(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, max_delay=1.0,
                               jitter=0.0, max_retries=10)
        rng = random.Random(0)
        assert policy.delay(0, rng) == pytest.approx(0.1)
        assert policy.delay(1, rng) == pytest.approx(0.2)
        assert policy.delay(5, rng) == pytest.approx(1.0)  # capped


class TestClusterGating:
    def test_unthrottled_cluster_has_no_flow_state(self):
        cluster = Cluster(ClusterConfig(n=3, seed=0))
        cluster.start()
        for i in range(20):
            cluster.submit(i % 3, f"free-{i}")
        assert cluster.flows == {}
        assert cluster.sim is not None

    def test_throttled_cluster_rejects_beyond_burst(self):
        cluster = Cluster(ClusterConfig(
            n=3, seed=0, flow=FlowConfig(rate=2.0, burst=2)))
        cluster.start()
        accepted, rejected = 0, 0
        for i in range(10):
            try:
                cluster.submit(0, f"hot-{i}")
                accepted += 1
            except OverloadError as busy:
                assert busy.reason == "rate"
                rejected += 1
        assert accepted == 2  # the burst, all at t=0
        assert rejected == 8
        controller = cluster.flows[0]
        assert controller.accepted == accepted
        assert controller.rejected == rejected
        assert controller.offered == 10

    def test_rejection_leaves_no_protocol_trace(self):
        cluster = Cluster(ClusterConfig(
            n=3, seed=0, flow=FlowConfig(rate=1.0, burst=1)))
        cluster.start()
        cluster.submit(0, "in")
        abcast = cluster.abcasts[0]
        seq_after_accept = abcast._seq
        unordered_after_accept = len(abcast.unordered)
        with pytest.raises(OverloadError):
            cluster.submit(0, "bounced")
        # A rejected submission consumes no sequence number and leaves
        # no buffer entry: it never happened, protocol-wise.
        assert abcast._seq == seq_after_accept
        assert len(abcast.unordered) == unordered_after_accept

    def test_throttled_run_still_verifies(self):
        from repro.harness.verify import verify_overload_safety, verify_run
        cluster = Cluster(ClusterConfig(
            n=3, seed=3, flow=FlowConfig(rate=4.0, burst=4)))
        cluster.start()
        offered = rejected = 0
        for i in range(12):
            offered += 1
            try:
                cluster.submit(i % 3, f"load-{i}")
            except OverloadError:
                rejected += 1
        assert cluster.settle(within=240.0)
        verify_run(cluster)
        verify_overload_safety(cluster, offered=offered, rejected=rejected)
