"""Property-based whole-protocol tests.

Hypothesis drives the *scenario*: seeds, fault timings and workload
shapes are all generated, and every generated run must satisfy the four
Atomic Broadcast properties (checked by the harness verifier).  This is
the closest thing to a model checker in the suite: any counterexample is
a minimal failing schedule.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.inject import FaultSchedule
from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario, run_scenario
from repro.transport.network import NetworkConfig
from repro.workloads.generators import PoissonWorkload

# Keep runtimes civil: each example is a full simulated cluster run.
RUNS = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@RUNS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    loss=st.sampled_from([0.0, 0.05, 0.15]),
    rate=st.sampled_from([0.5, 1.5]),
)
def test_basic_protocol_properties_hold_failure_free(seed, loss, rate):
    result = run_scenario(Scenario(
        cluster=ClusterConfig(n=3, seed=seed, protocol="basic",
                              network=NetworkConfig(loss_rate=loss)),
        workload=PoissonWorkload(rate, 8.0, seed=seed),
        duration=12.0, settle_limit=120.0))
    assert result.report is not None


@RUNS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    crash_at=st.floats(min_value=1.0, max_value=8.0),
    down_for=st.floats(min_value=0.2, max_value=6.0),
    victim=st.integers(min_value=0, max_value=2),
)
def test_basic_protocol_survives_arbitrary_single_crash(
        seed, crash_at, down_for, victim):
    result = run_scenario(Scenario(
        cluster=ClusterConfig(n=3, seed=seed, protocol="basic",
                              network=NetworkConfig(loss_rate=0.05)),
        workload=PoissonWorkload(1.0, 10.0, seed=seed),
        faults=FaultSchedule().crash(crash_at, victim)
        .recover(crash_at + down_for, victim),
        duration=20.0, settle_limit=200.0))
    assert result.report is not None


@RUNS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    checkpoint_interval=st.sampled_from([0.5, 2.0, None]),
    delta=st.sampled_from([1, 3, None]),
    log_unordered=st.booleans(),
    crash_at=st.floats(min_value=1.0, max_value=6.0),
    down_for=st.floats(min_value=0.5, max_value=5.0),
)
def test_alternative_protocol_feature_matrix(
        seed, checkpoint_interval, delta, log_unordered, crash_at,
        down_for):
    """Every combination of Section 5 features preserves the properties
    under a generated crash."""
    result = run_feature_matrix(seed, checkpoint_interval, delta,
                                log_unordered, crash_at, down_for)
    assert result.report is not None


def run_feature_matrix(seed, checkpoint_interval, delta, log_unordered,
                       crash_at, down_for):
    alt = AlternativeConfig(checkpoint_interval=checkpoint_interval,
                            delta=delta, log_unordered=log_unordered)
    return run_scenario(Scenario(
        cluster=ClusterConfig(n=3, seed=seed, protocol="alternative",
                              network=NetworkConfig(loss_rate=0.05),
                              alt=alt),
        workload=PoissonWorkload(1.0, 10.0, seed=seed),
        faults=FaultSchedule().crash(crash_at, 2)
        .recover(crash_at + down_for, 2),
        duration=20.0, settle_limit=200.0))


def test_a_driver_left_in_a_skipped_round_binds_nothing():
    """Node 2 skips instance 0 through a state transfer while its driver
    for 0 keeps running; after two silent timeouts that driver runs an
    attempt.  Acceptors that discarded instance 0 still promise under a
    static view, so if it bound a value here (∅: the round is known
    decided) they would accept it and 0 would decide twice."""
    result = run_feature_matrix(seed=0, checkpoint_interval=0.5, delta=1,
                                log_unordered=False, crash_at=1.0,
                                down_for=1.0)
    assert result.report is not None
