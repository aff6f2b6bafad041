"""Fault wiring: the mechanics of *doing* a fault on the simulator.

Crashing and recovering nodes on a schedule, cutting a set of nodes off
the link matrix, arming seeded random crash/recovery processes — used
by the chaos controllers and, through the schedule front-ends below, by
scenarios, benchmarks and targeted tests:

* :class:`FaultSchedule` — an explicit, hand-written timeline of crash
  and recover events.
* :class:`PartitionSchedule` — explicit cut/heal windows.
* :class:`RandomFaults` — seeded random crash/recovery with per-node
  mean-time-to-failure and mean-time-to-repair.
"""

from __future__ import annotations

import random
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.runtime import Node, SimRuntime

if TYPE_CHECKING:  # only the link-matrix methods are used: type-only import
    from repro.transport.network import Network

__all__ = ["FaultEvent", "FaultSchedule", "PartitionSchedule",
           "RandomFaults", "cut_off", "rejoin", "install_timeline"]


class FaultEvent:
    """One entry of an explicit crash/recover timeline."""

    __slots__ = ("time", "node_id", "action")

    CRASH = "crash"
    RECOVER = "recover"

    def __init__(self, time: float, node_id: int, action: str):
        if action not in (self.CRASH, self.RECOVER):
            raise ValueError(f"unknown fault action {action!r}")
        self.time = time
        self.node_id = node_id
        self.action = action

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultEvent({self.time}, {self.node_id}, {self.action!r})"


def install_timeline(sim: SimRuntime, nodes: Dict[int, Node],
                     events: Iterable[FaultEvent]) -> None:
    """Schedule an explicit crash/recover timeline on the simulator."""
    for event in events:
        node = nodes[event.node_id]
        if event.action == FaultEvent.CRASH:
            sim.schedule(event.time, node.crash)
        else:
            sim.schedule(event.time, node.recover)


def cut_off(network: "Network", isolated: Tuple[int, ...]) -> None:
    """Partition ``isolated`` away from every other node (both ways)."""
    others = [n for n in network.node_ids() if n not in isolated]
    for a in isolated:
        for b in others:
            network.partition(a, b)


def rejoin(network: "Network", isolated: Tuple[int, ...]) -> None:
    """Undo :func:`cut_off` for the same isolated set."""
    others = [n for n in network.node_ids() if n not in isolated]
    for a in isolated:
        for b in others:
            network.heal(a, b)


class FaultSchedule:
    """Explicit crash/recover timeline.

    >>> schedule = FaultSchedule([(5.0, 1, "crash"), (9.0, 1, "recover")])
    """

    def __init__(self, events: Iterable[Tuple[float, int, str]] = ()):
        self.events: List[FaultEvent] = [
            event if isinstance(event, FaultEvent) else FaultEvent(*event)
            for event in events
        ]

    def crash(self, time: float, node_id: int) -> "FaultSchedule":
        """Append a crash event (chainable)."""
        self.events.append(FaultEvent(time, node_id, FaultEvent.CRASH))
        return self

    def recover(self, time: float, node_id: int) -> "FaultSchedule":
        """Append a recover event (chainable)."""
        self.events.append(FaultEvent(time, node_id, FaultEvent.RECOVER))
        return self

    def install(self, sim: SimRuntime, nodes: Dict[int, Node]) -> None:
        """Schedule every event on the simulator."""
        install_timeline(sim, nodes, self.events)


class PartitionSchedule:
    """Explicit network partition timeline.

    Each entry isolates a set of nodes from the rest of the cluster for
    a time window; links inside either side keep working.  Fairness of
    the channel (and therefore liveness of the protocols) requires every
    partition to eventually heal, which this schedule guarantees by
    construction.

    >>> schedule = PartitionSchedule().isolate(2.0, 6.0, [0])
    """

    def __init__(self) -> None:
        self._windows: List[Tuple[float, float, Tuple[int, ...]]] = []

    def isolate(self, start: float, end: float,
                nodes: Iterable[int]) -> "PartitionSchedule":
        """Cut ``nodes`` off from everyone else during [start, end)."""
        if end <= start:
            raise ValueError("partition window must have positive length")
        self._windows.append((start, end, tuple(sorted(set(nodes)))))
        return self

    def install(self, sim: SimRuntime, network: "Network") -> None:
        """Schedule the cut and heal events on the network."""
        for start, end, isolated in self._windows:
            sim.schedule(start, cut_off, network, isolated)
            sim.schedule(end, rejoin, network, isolated)


class RandomFaults:
    """Seeded random crash-recovery process over a set of nodes.

    Arms an exponential crash timer per node; each crash arms an
    exponential recovery timer, and each recovery re-arms the crash
    timer.  After ``stabilize_at`` no further crashes are injected on
    *good* nodes (the paper's good processes "eventually remain
    permanently up", Section 3.3); ``bad_nodes`` keep oscillating forever
    or die permanently, per ``bad_mode``.

    The draw order is part of the determinism contract: one
    ``expovariate`` per armed crash and one per scheduled recovery, in
    arming order — replays are bit-for-bit.
    """

    def __init__(self, mttf: float, mttr: float, stabilize_at: float,
                 seed: int = 0,
                 bad_nodes: Sequence[int] = (),
                 bad_mode: str = "oscillate",
                 max_faults_per_node: Optional[int] = None):
        if bad_mode not in ("oscillate", "die"):
            raise ValueError(f"unknown bad_mode {bad_mode!r}")
        self.mttf = mttf
        self.mttr = mttr
        self.stabilize_at = stabilize_at
        # Seed boundary: the injector owns a private stream derived from
        # an explicit seed, so fault timelines replay bit-for-bit.
        self.rng = random.Random(seed)
        self.bad_nodes = frozenset(bad_nodes)
        self.bad_mode = bad_mode
        self.max_faults_per_node = max_faults_per_node
        self._fault_counts: Dict[int, int] = {}

    def install(self, sim: SimRuntime, nodes: Dict[int, Node]) -> None:
        """Arm a crash timer for every node."""
        for node in nodes.values():
            self._arm_crash(sim, node)

    # -- internals ----------------------------------------------------------

    def _budget_left(self, node: Node) -> bool:
        if self.max_faults_per_node is None:
            return True
        return self._fault_counts.get(node.node_id, 0) \
            < self.max_faults_per_node

    def _arm_crash(self, sim: SimRuntime, node: Node) -> None:
        delay = self.rng.expovariate(1.0 / self.mttf)
        sim.schedule(delay, self._crash, sim, node)

    def _crash(self, sim: SimRuntime, node: Node) -> None:
        is_bad = node.node_id in self.bad_nodes
        if not is_bad and sim.now >= self.stabilize_at:
            return  # good nodes stop crashing after stabilisation
        if not self._budget_left(node):
            return
        if not node.up:
            return
        node.crash()
        self._fault_counts[node.node_id] = \
            self._fault_counts.get(node.node_id, 0) + 1
        if is_bad and self.bad_mode == "die":
            return  # permanently down
        delay = self.rng.expovariate(1.0 / self.mttr)
        sim.schedule(delay, self._recover, sim, node)

    def _recover(self, sim: SimRuntime, node: Node) -> None:
        if node.up:
            return
        node.recover()
        self._arm_crash(sim, node)
