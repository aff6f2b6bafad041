"""Only what is in flight is kept: a decided instance keeps its decision
and nothing else, a resolved wait leaves nothing behind, and no
container grows with the run unless :data:`GROWS` says why.

Each stack runs at n = 3 on the simulator under a trickle of
broadcasts, one every 0.3 s from the nodes in turn, so nearly every
message is a consensus instance of its own.  The cluster is inspected
once N messages are delivered, and again past 2N, each time after it
has settled.  Then:

* every container-valued attribute of every node and of every
  component on it holds as many items at 2N as at N, unless
  :data:`GROWS` (or, for a stack whose log never shrinks,
  :data:`MIRRORS`) names it with its reason; an Agreed queue counts
  the messages it holds, not those its checkpoint stands for;
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

The same N-versus-2N comparison runs three more drivers: a multigroup
cluster of two overlapping groups (single- and cross-group multicasts),
consensus from Atomic Broadcast (one instance per message), and a
cluster that A-broadcasts a reconfiguration with every fifth message.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

from repro.consensus.paxos import PaxosConsensus
from repro.core.agreed import AgreedQueue
from repro.core.basic import BasicAtomicBroadcast
from repro.core.equivalence import ConsensusFromAtomicBroadcast
from repro.errors import ConsensusError
from repro.fdetect.heartbeat import HeartbeatDetector
from repro.fdetect.omega import OmegaOracle
from repro.harness.cluster import Cluster, ClusterConfig
from repro.multigroup.builder import MultiGroupCluster
from repro.runtime import Node, SeedSequence, SimRuntime
from repro.storage.stable import StableStorage
from repro.transport.endpoint import Endpoint
from repro.transport.network import Network, NetworkConfig

PROTOCOLS = ("basic", "alternative", "eager", "ct", "sequencer")
CONSENSUS = ("basic", "alternative", "ct")
N = 15

AGREED = ("the delivery sequence: a message leaves it only for an "
          "application checkpoint (Section 5.2), and these runs take none")
CRASH_STOP = ("the crash-stop baseline [3] takes no checkpoint, so no "
              "floor lets it forget an instance")

#: (class, attribute) -> why it may grow with the run.
GROWS = {
    **{(stack, "agreed"): AGREED for stack in (
        "BasicAtomicBroadcast", "AlternativeAtomicBroadcast",
        "EagerLoggingAtomicBroadcast", "ChandraTouegAtomicBroadcast",
        "FixedSequencerBroadcast")},
    ("ChandraTouegConsensus", "_decisions"): CRASH_STOP,
    ("ChandraTouegConsensus", "_proposals"): CRASH_STOP,
    ("FixedSequencerBroadcast", "_assigned"):
        "baseline fidelity: the fixed sequencer keeps its full "
        "assignment map (no GC protocol in [12])",
    ("FixedSequencerBroadcast", "_order_log"):
        "the order log serves ResendRequest for arbitrarily old "
        "sequence numbers",
    ("ViewManager", "_applied"):
        "replay idempotence: the applied-command set must span every "
        "reconfiguration the log can re-deliver",
    ("MultiGroupMulticast", "pending"):
        "pending doubles as duplicate suppression: evicting a delivered "
        "entry would re-deliver a late duplicate propose",
    ("MultiGroupMulticast", "_relayed"):
        "relay dedup must remember every (mid, group) pair a crashed "
        "sender might leave half-submitted",
    ("ConsensusFromAtomicBroadcast", "_decisions"):
        "decided values must outlive every instance; the reduction has "
        "no checkpoint floor",
}

#: The per-instance mirrors of a log that never shrinks (ROADMAP item
#: 6): with no checkpoint, no instance is ever discarded.
MIRRORS = {("PaxosConsensus", "_accepted"), ("PaxosConsensus", "_decisions")}
UNBOUNDED_LOG = ("basic", "eager")


def parked(signal) -> List:
    """The waiters on ``signal``'s next notification."""
    event = signal._event
    return [] if event is None or event.fired else list(event._waiters)


def drive_to(cluster: Cluster, messages: int, sent: List[int]) -> None:
    """Broadcast until ``messages`` are delivered, then settle."""
    while len(cluster.collector.first_delivery) < messages:
        assert sent[0] < 4 * messages, "deliveries stopped advancing"
        index = sent[0]
        cluster.submit(index % 3, ("m", index))
        sent[0] += 1
        cluster.run_for(0.3)
    assert cluster.settle(within=30.0)
    cluster.run_for(3.0)   # a few quiet polls and heartbeats


def held_items(value: Any) -> Optional[int]:
    """How many items a container holds (``None``: not a container)."""
    if isinstance(value, AgreedQueue):
        return len(value.suffix)
    if isinstance(value, (dict, list, set, frozenset, tuple, deque)):
        return len(value)
    return None


def sizes(nodes: Dict[int, Node]) -> Dict[Tuple[int, str, str], int]:
    """``(node, class, attribute) -> items held``, for every container
    attribute of every node and of every component on it."""
    found = {}
    for node_id, node in sorted(nodes.items()):
        for owner in (node, *node.components):
            for name, value in vars(owner).items():
                size = held_items(value)
                if size is not None:
                    found[node_id, type(owner).__name__, name] = size
    return found


def grown(at_n: Dict[Tuple[int, str, str], int],
          at_2n: Dict[Tuple[int, str, str], int]) -> List[Tuple[str, str]]:
    """The ``(class, attribute)`` pairs holding more items at 2N."""
    return sorted({(owner, name)
                   for (node_id, owner, name), size in at_2n.items()
                   if size > at_n.get((node_id, owner, name), 0)})


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
    at_n, sizes_n = held(cluster), sizes(cluster.nodes)
    drive_to(cluster, 2 * N, sent)
    at_2n, sizes_2n = held(cluster), sizes(cluster.nodes)
    allowed = set(GROWS) | (MIRRORS if protocol in UNBOUNDED_LOG else set())
    assert [entry for entry in grown(sizes_n, sizes_2n)
            if entry not in allowed] == []
    assert at_2n == at_n
    assert all(row["signals"] <= row["drivers"] + 1
               for row in at_2n.values())


def run_length_growth(nodes: Dict[int, Node],
                      drive: Callable[[int], None]) -> List[Tuple[str, str]]:
    """What grows from N to 2N delivered messages under ``drive(count)``,
    which runs until ``count`` are delivered and the nodes are quiet."""
    drive(N)
    at_n = sizes(nodes)
    drive(2 * N)
    return grown(at_n, sizes(nodes))


def test_multigroup_state_is_bounded():
    cluster = MultiGroupCluster({"a": (0, 1, 2), "b": (1, 2, 3)}, seed=7)
    cluster.start()
    # Single-group multicasts from a member of only that group, and
    # cross-group ones from a member of both.
    senders = ((0, ("a",)), (3, ("b",)), (1, ("a", "b")))
    sent: List[Tuple[str, ...]] = []

    def caught_up() -> bool:
        return all(len(cluster.layers[node].delivered_in(group))
                   >= sum(group in groups for groups in sent)
                   for group, members in cluster.groups.items()
                   for node in members)

    def drive(count: int) -> None:
        while len(sent) < count:
            node, groups = senders[len(sent) % len(senders)]
            cluster.multicast(node, ("m", len(sent)), groups)
            sent.append(groups)
            cluster.run(cluster.sim.now + 0.3)
        deadline = cluster.sim.now + 30.0
        while not caught_up() and cluster.sim.now < deadline:
            cluster.run(cluster.sim.now + 1.0)
        assert caught_up()
        cluster.run(cluster.sim.now + 3.0)

    growth = run_length_growth(cluster.nodes, drive)
    assert [entry for entry in growth
            if entry not in set(GROWS) | MIRRORS] == []
    assert {("MultiGroupMulticast", "pending"),
            ("MultiGroupMulticast", "_relayed")} <= set(growth)


def test_consensus_from_broadcast_state_is_bounded():
    sim = SimRuntime()
    network = Network(sim, SeedSequence(7).stream("net"), NetworkConfig())
    nodes, reductions = {}, {}
    for node_id in range(3):
        node = Node(sim, node_id, StableStorage())
        endpoint = node.add_component(Endpoint(network))
        detector = node.add_component(HeartbeatDetector(endpoint))
        omega = node.add_component(OmegaOracle(detector))
        consensus = node.add_component(PaxosConsensus(endpoint, omega))
        abcast = node.add_component(BasicAtomicBroadcast(endpoint,
                                                         consensus))
        reductions[node_id] = node.add_component(
            ConsensusFromAtomicBroadcast(abcast))
        network.register(node)
        nodes[node_id] = node
    for node in nodes.values():
        node.start()
    proposed = [0]

    def drive(count: int) -> None:
        # Instance k is proposed by two nodes, one of which loses.
        while proposed[0] < count:
            k = proposed[0]
            reductions[k % 3].propose(k, ("v", k))
            reductions[(k + 1) % 3].propose(k, ("w", k))
            proposed[0] += 1
            sim.run(until=sim.now + 0.3)
        deadline = sim.now + 30.0
        while any(box.decided_value(count - 1) is None
                  for box in reductions.values()) and sim.now < deadline:
            sim.run(until=sim.now + 1.0)
        sim.run(until=sim.now + 3.0)

    growth = run_length_growth(nodes, drive)
    assert [entry for entry in growth
            if entry not in set(GROWS) | MIRRORS] == []
    assert ("ConsensusFromAtomicBroadcast", "_decisions") in growth


def test_membership_churn_state_is_bounded():
    cluster = Cluster(ClusterConfig(n=4, seed=7, protocol="basic"))
    cluster.start()
    sent = [0]

    def drive(count: int) -> None:
        # Node 3 leaves and rejoins every five submissions, so it is a
        # member whenever the cluster is inspected.
        while sent[0] < count:
            index = sent[0]
            if index % 5 in (2, 4):
                cluster.submit_reconfig(
                    "leave" if index % 5 == 2 else "join", 3)
            else:
                cluster.submit(index % 3, ("m", index))
            sent[0] += 1
            cluster.run_for(0.3)
        assert cluster.settle(within=30.0)
        cluster.run_for(3.0)

    growth = run_length_growth(cluster.nodes, drive)
    assert [entry for entry in growth
            if entry not in set(GROWS) | MIRRORS] == []
    assert ("ViewManager", "_applied") in growth


@pytest.mark.parametrize("protocol", CONSENSUS)
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
