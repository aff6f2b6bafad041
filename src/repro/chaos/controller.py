"""Chaos controllers: apply a fault timeline to a running cluster.

A controller owns one built cluster and replays a sorted list of
:class:`~repro.chaos.events.ChaosEvent` against it: advance the clock to
the event's instant, apply it, repeat.  Both runtimes share the event
vocabulary and — through the one cluster surface of
:class:`~repro.harness.cluster.ClusterCore` — the clock, crashes,
recoveries, submissions and membership changes; what differs is which
faults are expressible (the link matrix and disk faults exist on the
simulator, clock skew on the live runtime).
:func:`~repro.harness.scenario.run_scenario` builds the controller for
a scenario's runtime and settles and verifies after the timeline.

Disk faults are the interesting case: applying a ``torn_write`` event
only *arms* the victim's :class:`~repro.storage.faulty.FaultyStorage`;
the fault fires later, inside whatever ``log`` call the victim makes
next, and surfaces as an :class:`~repro.storage.faulty.InjectedCrashFault`
unwinding out of ``sim.run`` (the kernel executes exactly one node's
callback at a time, so only the victim's step is torn).  The controller
catches it, crashes the victim — volatile state gone, the torn record on
"disk" — schedules the recovery, and resumes the clock.  This is a
faithful power-cut-mid-write, which is precisely the scenario the
paper's ``log``-before-``send`` discipline exists for.

A chaos timeline ends with a ``restore`` event: once every other event
is spent it restores a fair world (heal partitions, base loss, disarm
disk faults, recover everyone), so the run can settle.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.events import ChaosEvent
from repro.chaos.inject import cut_off
from repro.errors import OverloadError, SimulationError
from repro.storage.faulty import FaultyStorage, InjectedCrashFault

__all__ = ["LiveChaosController", "SimChaosController"]


class _BaseController:
    """Shared timeline replay; the runtime-only faults live in subclasses."""

    def __init__(self, cluster: Any, base_loss: float):
        self.cluster = cluster
        self.base_loss = base_loss
        # Every event actually applied, including dynamic ones (disk-fault
        # crashes, submit redirections): the reproducible ground truth.
        self.applied: List[ChaosEvent] = []
        self.fault_counts: Dict[str, int] = {}
        self._heap: List[Tuple[float, int, ChaosEvent]] = []
        self._serial = 0

    # -- timeline ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.cluster.runtime.now

    def push(self, event: ChaosEvent) -> None:
        heapq.heappush(self._heap, (event.time, self._serial, event))
        self._serial += 1

    def run_timeline(self, events: List[ChaosEvent], horizon: float) -> None:
        """Advance-apply until the timeline (and the horizon) is spent."""
        for event in events:
            self.push(event)
        while self._heap:
            _, _, event = heapq.heappop(self._heap)
            self.advance(event.time)
            try:
                self.apply(event)
            except InjectedCrashFault as fault:
                # An armed disk fault fired inside a synchronous apply
                # (a recovery replay's first log, a submission's
                # write-ahead): same crash semantics as firing mid-run.
                self.on_injected_fault(fault)
        self.advance(horizon)

    def advance(self, until: float) -> None:
        """Run the cluster's clock to ``until``, crashing the victim of
        any disk fault that fires on the way."""
        while self.now < until:
            try:
                self.cluster.run(until)
            except InjectedCrashFault as fault:
                self.on_injected_fault(fault)

    def record(self, event: ChaosEvent, count_as: Optional[str] = None) -> None:
        self.applied.append(event)
        kind = count_as or event.kind
        if kind != "submit":
            self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1

    # -- event application ----------------------------------------------------

    def apply(self, event: ChaosEvent) -> None:
        handler = getattr(self, f"_apply_{event.kind}", None)
        if handler is None:
            raise SimulationError(
                f"{type(self).__name__} cannot apply {event.kind!r}")
        handler(event)

    def _apply_submit(self, event: ChaosEvent) -> None:
        target = event.node
        if target is None or not self.cluster.nodes[target].up:
            up = [nid for nid, node in self.cluster.nodes.items() if node.up]
            if not up:
                return  # whole cluster down: the submission never happens
            target = min(up)
        try:
            self.cluster.submit(target, event.args["payload"])
        except OverloadError as busy:
            # The busy signal is part of the contract under saturation:
            # the rejection is counted, never silently lost.
            self.record(ChaosEvent(self.now, "submit", node=target,
                                   payload=event.args["payload"],
                                   rejected=busy.reason),
                        count_as="overload_reject")
            return
        self.record(ChaosEvent(self.now, "submit", node=target,
                               payload=event.args["payload"]))

    def _apply_crash(self, event: ChaosEvent) -> None:
        if self.cluster.nodes[event.node].up:
            self.cluster.crash(event.node)
            self.record(event)

    def _apply_recover(self, event: ChaosEvent) -> None:
        if not self.cluster.nodes[event.node].up:
            self.cluster.recover(event.node)
            self.record(event)

    def _apply_loss(self, event: ChaosEvent) -> None:
        self._set_loss(event.args["rate"])
        self.record(event)

    def _apply_loss_restore(self, event: ChaosEvent) -> None:
        self._set_loss(self.base_loss)
        self.record(event)

    def _apply_restore(self, event: ChaosEvent) -> None:
        """End the timeline in a fair world.  Not recorded: it is how a
        chaos run ends, not a fault the run suffered."""
        if self._heap:
            # Events planned past the horizon (a late recovery, a disk
            # crash's downtime) still come first.
            self.push(ChaosEvent(max(when for when, _, _ in self._heap),
                                 "restore"))
            return
        self._heal()
        self.advance(self.now + 0.5)  # drain armed faults' last writes
        for node_id in self.cluster.nodes:
            self.cluster.recover(node_id)

    # -- membership churn ------------------------------------------------------

    def _member_up(self) -> bool:
        """Is any current-view member up to carry an ordered command?"""
        return any(nid in self.cluster.nodes and self.cluster.nodes[nid].up
                   for nid in self.cluster.current_view().members)

    def _apply_join(self, event: ChaosEvent) -> None:
        if event.node in self.cluster.nodes:
            return  # id already built (e.g. replanned join): nothing to do
        if not self._member_up():
            return  # nobody to order the join command right now
        try:
            self.cluster.add_node(event.node)
        except OverloadError:
            # Admission control turned the join command away (combined
            # overload + churn run): the reconfiguration simply does not
            # happen this time — same outcome as no member being up.
            return
        self.record(event)

    def _apply_leave(self, event: ChaosEvent) -> None:
        self._apply_removal(event, evict=False)

    def _apply_evict(self, event: ChaosEvent) -> None:
        self._apply_removal(event, evict=True)

    def _apply_removal(self, event: ChaosEvent, evict: bool) -> None:
        view = self.cluster.current_view()
        if event.node not in view.members:
            return  # already removed (or never joined): ordered no-op spared
        if len(view.members) <= 2:
            return  # keep the view able to form meaningful quorums
        if not self._member_up():
            return
        try:
            self.cluster.submit_reconfig("evict" if evict else "leave",
                                         event.node)
        except OverloadError:
            return  # rejected command: the removal does not happen
        self.record(event)
        if evict and event.node in self.cluster.nodes \
                and self.cluster.nodes[event.node].up:
            # Eviction expels a faulty process: crash it through the
            # handler, which records the crash too.
            self.apply(ChaosEvent(self.now, "crash", node=event.node))

    # -- runtime-specific hooks ------------------------------------------------

    def on_injected_fault(self, fault: InjectedCrashFault) -> None:
        raise fault  # only the simulator injects disk faults

    def _set_loss(self, rate: float) -> None:
        raise NotImplementedError

    def _heal(self) -> None:
        """Undo every fault still in force (``restore``)."""
        self._set_loss(self.base_loss)


class SimChaosController(_BaseController):
    """Timeline replay against a simulated :class:`~repro.harness.cluster.Cluster`."""

    def __init__(self, cluster: Any, base_loss: float):
        super().__init__(cluster, base_loss)
        self._disk_downtimes: Dict[int, float] = {}

    def on_injected_fault(self, fault: InjectedCrashFault) -> None:
        victim = fault.node_hint
        assert victim is not None
        self.cluster.crash(victim)
        self.record(ChaosEvent(self.now, "crash", node=victim,
                               cause=fault.mode, key=fault.path),
                    count_as="disk_crash")
        downtime = self._disk_downtimes.pop(victim, 1.0)
        self.push(ChaosEvent(self.now + downtime, "recover", node=victim))

    def _set_loss(self, rate: float) -> None:
        self.cluster.network.config.loss_rate = rate

    def _heal(self) -> None:
        for node in self.cluster.nodes.values():
            if isinstance(node.storage, FaultyStorage):
                node.storage.disarm()  # also heals a limping disk
        self.cluster.network.heal_all()
        self.cluster.network.clear_node_delays()
        super()._heal()

    # -- event handlers --------------------------------------------------------

    def _apply_partition(self, event: ChaosEvent) -> None:
        cut_off(self.cluster.network, tuple(event.args["isolated"]))
        self.record(event)

    def _apply_heal_all(self, event: ChaosEvent) -> None:
        self.cluster.network.heal_all()
        self.record(event)

    def _apply_torn_write(self, event: ChaosEvent) -> None:
        storage = self.cluster.nodes[event.node].storage
        if not isinstance(storage, FaultyStorage):
            return  # scenario built without fault-injection storage
        storage.arm_crash_write(event.args.get("mode", "torn"))
        self._disk_downtimes[event.node] = event.args.get("downtime", 1.0)
        self.record(event)

    # -- gray failures ---------------------------------------------------------

    def _apply_slow_disk(self, event: ChaosEvent) -> None:
        node = self.cluster.nodes[event.node]
        storage = node.storage
        if not isinstance(storage, FaultyStorage):
            return  # scenario built without fault-injection storage
        storage.set_latency(event.args["low"], event.args["high"])
        # Each drawn write stall freezes the victim's whole process:
        # slow-but-alive, exactly the gray-failure envelope.
        storage.on_stall = node.stall
        self.record(event)

    def _apply_slow_disk_restore(self, event: ChaosEvent) -> None:
        storage = self.cluster.nodes[event.node].storage
        if not isinstance(storage, FaultyStorage):
            return
        storage.clear_latency()
        self.record(event)

    def _apply_limp(self, event: ChaosEvent) -> None:
        self.cluster.network.set_node_delay(event.node, event.args["extra"])
        self.record(event)

    def _apply_limp_restore(self, event: ChaosEvent) -> None:
        self.cluster.network.clear_node_delay(event.node)
        self.record(event)


class LiveChaosController(_BaseController):
    """Timeline replay against a :class:`~repro.harness.live.LiveCluster`.

    Runs in real time; crash/recover events kill the node's socket and
    storage handle and restart over the surviving files, loss events
    mutate the UDP injection rate, and clock jumps skew the runtime's
    epoch.  Partition and disk-fault events are simulator-only and are
    rejected here (the nemesis battery never plans them for ``live``).
    """

    def _set_loss(self, rate: float) -> None:
        self.cluster.network.loss_rate = rate

    def _apply_clock_jump(self, event: ChaosEvent) -> None:
        self.cluster.runtime.jump_clock(event.args["delta"])
        self.record(event)
