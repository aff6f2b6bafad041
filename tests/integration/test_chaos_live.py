"""Live-runtime chaos smoke: loss burst plus one crash, verified.

A single hand-written timeline — not a seeded sweep — so the test stays
fast and its failure mode is legible: 3 nodes over real UDP with 20%%
injected loss, a mid-run kill of one node (socket closed, storage handle
dropped, recovery replays the fsync'd files) and a burst to 40%% loss,
then the timeline's ``restore`` step heals the world and the scenario
runner settles and checks the paper's four properties on what actually
happened.  The seeded sweep
equivalent runs in CI as ``repro chaos --runtime live`` (chaos-smoke
job); this test is the tier-1 guard for the same machinery.
"""

from __future__ import annotations

import pytest

from repro.chaos.events import ChaosEvent
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario, run_scenario
from repro.transport.network import NetworkConfig

HORIZON = 2.5
BASE_LOSS = 0.2
N_MESSAGES = 8


@pytest.fixture(scope="module")
def chaos_result(tmp_path_factory):
    timeline = [
        ChaosEvent(0.1 + i * 0.15, "submit", node=i % 3,
                   payload=f"live-chaos-{i}")
        for i in range(N_MESSAGES)
    ]
    timeline += [
        ChaosEvent(0.6, "crash", node=2),
        ChaosEvent(0.9, "loss", rate=0.4),
        ChaosEvent(1.5, "loss_restore"),
        ChaosEvent(1.6, "recover", node=2),
        ChaosEvent(HORIZON, "restore"),
    ]
    timeline.sort(key=lambda event: event.time)
    result = run_scenario(Scenario(
        ClusterConfig(n=3, seed=23, protocol="basic",
                      network=NetworkConfig(loss_rate=BASE_LOSS),
                      gossip_interval=0.1),
        runtime="live", timeline=timeline, duration=HORIZON,
        settle_limit=HORIZON + 30.0, trace=True,
        directory=str(tmp_path_factory.mktemp("chaos-live"))))
    return result.cluster, result.controller, result.report


def missing(cluster, controller, delivered) -> str:
    """For each payload submitted but not delivered: its submitter, its
    submit time, whether the submitter crashed before delivering it, and
    the collector's events that name it."""
    collector = cluster.collector
    mids = {payload: mid for mid, payload
            in collector.broadcast_payloads.items()}
    lines = []
    for event in controller.applied:
        payload = event.args.get("payload")
        if event.kind != "submit" or payload in delivered:
            continue
        mid = mids.get(payload)
        own = [time for node, _, delivered_mid, time
               in collector.deliveries
               if node == event.node and delivered_mid == mid]
        crashed = [time for time in collector.crash_times.get(event.node, ())
                   if time >= event.time and (not own or time < own[0])]
        lines.append(f"{payload!r}: submitted by node {event.node} at "
                     f"{event.time:.3f} as {mid}; submitter crashed before "
                     f"delivering it: {crashed or 'no'}")
        names = [repr(payload)] + ([repr(mid)] if mid is not None else [])
        lines += ["  " + trace.format() for trace in collector.select()
                  if any(name in trace.format() for name in names)]
    return "\n".join(lines)


def test_all_submissions_delivered(chaos_result):
    cluster, controller, report = chaos_result
    payloads = cluster.collector.broadcast_payloads
    delivered = sorted(payloads[mid] for mid in report.canonical)
    assert delivered == sorted(f"live-chaos-{i}" for i in range(N_MESSAGES)), \
        missing(cluster, controller, delivered)


def test_faults_actually_happened(chaos_result):
    cluster, controller, _ = chaos_result
    assert controller.fault_counts.get("crash") == 1
    assert controller.fault_counts.get("loss") == 1
    assert cluster.nodes[2].recovery_count == 1
    # Injected UDP loss really dropped datagrams on the floor, and the
    # protocols repaired it themselves (every submission made it).
    assert cluster.network.metrics.lost > 0


def test_applied_timeline_is_reproducible_ground_truth(chaos_result):
    _, controller, _ = chaos_result
    kinds = [event.kind for event in controller.applied]
    assert kinds.count("submit") == N_MESSAGES
    assert "crash" in kinds and "recover" in kinds
    # Events are recorded in application order with real timestamps.
    times = [event.time for event in controller.applied]
    assert times == sorted(times)
