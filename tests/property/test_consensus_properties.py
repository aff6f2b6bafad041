"""Property-based tests for the consensus substrates.

Hypothesis generates seeds, crash times and proposal values; every
generated schedule must satisfy Uniform Agreement, Uniform Validity and
(for schedules that keep a majority alive) Termination.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.consensus.paxos import PaxosConsensus
from repro.fdetect.heartbeat import HeartbeatDetector
from repro.fdetect.omega import OmegaOracle
from repro.runtime import Node, SimRuntime
from repro.storage.stable import StableStorage
from repro.transport.endpoint import Endpoint
from repro.transport.network import Network, NetworkConfig

RUNS = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def build(n, seed, loss):
    sim = SimRuntime()
    net = Network(sim, random.Random(seed), NetworkConfig(loss_rate=loss))
    nodes, consensuses = {}, {}
    for i in range(n):
        node = Node(sim, i, StableStorage())
        endpoint = node.add_component(Endpoint(net))
        detector = node.add_component(HeartbeatDetector(endpoint))
        omega = node.add_component(OmegaOracle(detector))
        consensuses[i] = node.add_component(
            PaxosConsensus(endpoint, omega))
        net.register(node)
        nodes[i] = node
    for node in nodes.values():
        node.start()
    return sim, nodes, consensuses


@RUNS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    loss=st.sampled_from([0.0, 0.1, 0.25]),
    values=st.lists(st.text(min_size=1, max_size=8), min_size=3,
                    max_size=3, unique=True),
)
def test_agreement_and_validity_failure_free(seed, loss, values):
    sim, nodes, consensuses = build(3, seed, loss)
    for i, value in enumerate(values):
        consensuses[i].propose(0, frozenset({value}))
    sim.run(until=60.0)
    decisions = [consensuses[i].decided_value(0) for i in range(3)]
    assert decisions[0] is not None, "termination violated"
    assert decisions.count(decisions[0]) == 3, "agreement violated"
    assert decisions[0] in [frozenset({v}) for v in values], \
        "validity violated"


@RUNS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    crash_at=st.floats(min_value=0.1, max_value=3.0),
    victim=st.integers(min_value=0, max_value=2),
    recover_after=st.floats(min_value=0.5, max_value=5.0),
)
def test_decision_stability_across_crash(seed, crash_at, victim,
                                         recover_after):
    """Whatever the schedule, a decision, once made anywhere, is final:
    the recovered node re-proposing its logged value converges to it."""
    sim, nodes, consensuses = build(3, seed, 0.05)
    for i in range(3):
        consensuses[i].propose(0, frozenset({f"v{i}"}))
    sim.schedule(crash_at, nodes[victim].crash)
    sim.schedule(crash_at + recover_after, nodes[victim].recover)

    def rejoin():
        logged = consensuses[victim].proposal_of(0)
        if logged is not None:
            consensuses[victim].propose(0, logged)

    sim.schedule(crash_at + recover_after + 0.1, rejoin)
    sim.run(until=80.0)
    decisions = [consensuses[i].decided_value(0) for i in range(3)]
    known = [d for d in decisions if d is not None]
    assert known, "nobody decided despite a good majority"
    assert all(d == known[0] for d in known), "agreement violated"
    # The victim, being recovered and re-joined, must also have learned.
    assert decisions[victim] == known[0]


@RUNS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    instances=st.integers(min_value=1, max_value=4),
)
def test_instances_are_independent(seed, instances):
    sim, nodes, consensuses = build(3, seed, 0.05)
    for k in range(instances):
        for i in range(3):
            consensuses[i].propose(k, frozenset({(k, i)}))
    sim.run(until=30.0 + 20.0 * instances)
    for k in range(instances):
        decisions = [consensuses[i].decided_value(k) for i in range(3)]
        assert decisions[0] is not None
        assert decisions.count(decisions[0]) == 3
        # The decision for instance k was proposed *to instance k*.
        decided_pair = next(iter(decisions[0]))
        assert decided_pair[0] == k
