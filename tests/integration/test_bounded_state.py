"""Only what is in flight is kept: a decided instance keeps its decision
and nothing else, and a resolved wait leaves nothing behind.

Each consensus stack runs at n = 3 on the simulator under a trickle of
broadcasts, one every 0.3 s from the nodes in turn, so nearly every
message is an instance of its own.  The cluster is inspected once every
node has passed instance N, and again past 2N, each time after it has
settled.  Then:

* every node's Paxos attempts and pinned member sets belong to drivers
  still running, and Chandra–Toueg's round tallies to undecided
  instances;
* every decision signal a node holds is one of an undecided instance;
* the waiters parked on Ω's ``changed`` signal and on the failure
  detector's are tasks that still wait there, no more of them than the
  drivers in flight and the one task that watches the detector;
* every count is the same at 2N as at N;
* and a wait for an instance already decided returns at once, without
  creating a signal to park on.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.errors import ConsensusError
from repro.harness.cluster import Cluster, ClusterConfig

PROTOCOLS = ("basic", "alternative", "ct")
N = 15


def parked(signal) -> List:
    """The waiters on ``signal``'s next notification."""
    event = signal._event
    return [] if event is None or event.fired else list(event._waiters)


def drive_to(cluster: Cluster, instances: int, sent: List[int]) -> None:
    """Broadcast until every node has passed ``instances``, then settle."""
    while min(abcast.k for abcast in cluster.abcasts.values()) < instances:
        assert sent[0] < 4 * instances, "the instances stopped advancing"
        index = sent[0]
        cluster.submit(index % 3, ("m", index))
        sent[0] += 1
        cluster.run_for(0.3)
    assert cluster.settle(within=30.0)
    cluster.run_for(3.0)   # a few quiet polls and heartbeats


def held(cluster: Cluster) -> Dict[int, Dict[str, int]]:
    """Per node, what its consensus box holds, checked against what is
    in flight there."""
    counts = {}
    for node_id, box in sorted(cluster.consensuses.items()):
        drivers = set(box._drivers)
        decided = set(box._decisions)
        signals = set(box._decided_signal)
        assert not signals & decided, \
            f"node {node_id} keeps the signals of decided {signals & decided}"
        row = {"drivers": len(drivers), "signals": len(signals)}
        if hasattr(box, "_attempts"):
            assert set(box._attempts) <= drivers
            assert set(box._instance_members) <= drivers
            omega = parked(box.omega.changed)
            assert all(not waiter.dead for waiter in omega)
            assert len(omega) <= len(drivers)
            row.update(attempts=len(box._attempts),
                       members=len(box._instance_members),
                       omega=len(omega))
            detector = box.omega.detector
        else:
            assert not set(box._instances) & decided
            row.update(rounds=len(box._instances))
            detector = box.detector
        watchers = parked(detector.changed)
        assert all(not waiter.dead for waiter in watchers)
        assert len(watchers) <= len(drivers) + 1   # + Ω's watch task
        row.update(detector=len(watchers))
        counts[node_id] = row
    return counts


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_state_is_bounded_by_what_is_in_flight(protocol):
    cluster = Cluster(ClusterConfig(n=3, seed=7, protocol=protocol))
    cluster.start()
    sent = [0]
    drive_to(cluster, N, sent)
    at_n = held(cluster)
    drive_to(cluster, 2 * N, sent)
    at_2n = held(cluster)
    assert at_2n == at_n
    assert all(row["signals"] <= row["drivers"] + 1
               for row in at_2n.values())


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_wait_for_a_decided_instance_never_parks(protocol):
    cluster = Cluster(ClusterConfig(n=3, seed=7, protocol=protocol))
    cluster.start()
    box = cluster.consensuses[1]
    # The alternative protocol forgets decisions below its checkpoints:
    # catch one while it is still held.
    cluster.submit(0, "m")
    while not box._decisions:
        cluster.run_for(0.01)
    k = max(box._decisions)
    decision = box.decided_value(k)
    got = []

    def waiter():
        got.append((yield from box.wait_decided(k)))

    task = cluster.nodes[1].spawn(waiter(), "late-waiter")
    cluster.run_for(0.0)
    assert task.finished and got == [decision]
    assert k not in box._decided_signal
    with pytest.raises(ConsensusError, match="decided"):
        box.decision_signal(k)
