"""Link-liveness failure detector with adaptive timeouts.

An eventually-perfect-style detector for the crash-recovery model.
Liveness is a property of the link, not of a message type: *any*
message a node consumes from a peer shows the peer was up a channel
delay ago, so every arrival refreshes that peer, and an explicit
``ALIVE(epoch)`` goes only to peers this node has sent nothing else for
one ``period``.  A peer is *suspected* when nothing at all has arrived
from it within the current (per-peer) timeout.

Two properties matter for the consensus layer built on top:

* **Completeness** — a process that stays down sends nothing, so its
  deadline passes at every up process.
* **Eventual accuracy** — an up process leaves no link silent for longer
  than ``period``; each time a suspicion proves wrong (something arrives
  from a suspected peer) that peer's timeout is increased, so in runs
  whose delays are bounded a good process is eventually never suspected.

Arrivals cannot be stale evidence: the media hold a message for a
bounded delay, a stubborn retransmission is sent by a live sender's
timer, and a stalled node defers every arrival exactly as it used to
defer heartbeats.

The heartbeat carries an *epoch* counter logged in stable storage and
incremented on every start/recovery, in the spirit of the unbounded
failure detectors of Aguilera, Chen and Toueg [1]: observers can tell a
recovered incarnation from a stale one, and :meth:`epoch_of` exposes the
count so layers above can detect unstable (oscillating) peers.  A
recovered node's send clock is empty, so the first thing it sends every
peer is an explicit ``ALIVE`` with the new epoch.

The Atomic Broadcast layer itself never reads this detector — the paper's
protocol is failure-detector-free.  Only the consensus substrate (via the
Ω oracle in :mod:`repro.fdetect.omega`) uses it.
"""

from __future__ import annotations

import math
from typing import Dict, Set

from repro.runtime import NodeComponent, Signal
from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage

__all__ = ["Heartbeat", "HeartbeatDetector"]


class Heartbeat(WireMessage):
    """``ALIVE`` wire message: sender's current epoch."""

    type = "fd.alive"
    fields = ("epoch",)

    def __init__(self, epoch: int):
        self.epoch = epoch


class HeartbeatDetector(NodeComponent):
    """Per-node failure detector module (one oracle per process).

    Parameters
    ----------
    endpoint:
        The node's transport endpoint.
    period:
        The longest silence this node leaves on a link to a peer.
    initial_timeout:
        Starting suspicion timeout per peer (adapted upwards on mistakes).
    timeout_increment:
        Additive increase applied each time a suspicion is refuted.
    """

    name = "failure-detector"

    EPOCH_KEY = ("fd", "epoch")

    def __init__(self, endpoint: Endpoint, period: float = 0.5,
                 initial_timeout: float = 2.0,
                 timeout_increment: float = 0.5,
                 durable_epoch: bool = True):
        super().__init__()
        self.endpoint = endpoint
        self.period = period
        self.initial_timeout = initial_timeout
        self.timeout_increment = timeout_increment
        self.durable_epoch = durable_epoch
        self.epoch = 0
        self._last_heard: Dict[int, float] = {}
        self._timeouts: Dict[int, float] = {}
        self._suspects: Set[int] = set()
        self._epochs: Dict[int, int] = {}
        self.changed: Signal = None  # type: ignore[assignment]

    # -- lifecycle -----------------------------------------------------------

    def on_start(self) -> None:
        node = self.node
        assert node is not None
        sim = node.sim
        self.changed = sim.signal(f"fd-changed@{node.node_id}")
        # New incarnation: bump the epoch counter (durable in the
        # crash-recovery model; volatile suffices for crash-stop).
        if self.durable_epoch:
            self.epoch = int(node.storage.retrieve(self.EPOCH_KEY, 0)) + 1
            node.storage.log(self.EPOCH_KEY, self.epoch)  # repro: noqa(REC003) -- epochs must advance per restart so peers discard stale suspicions; skipping an epoch on a mid-recovery crash is harmless
        else:
            self.epoch += 1
        self._last_heard = {peer: sim.now for peer in self.endpoint.peers()}
        self._timeouts = {}
        self._suspects = set()
        self._epochs = {}
        self.endpoint.register(Heartbeat.type, self._on_heartbeat)
        node.add_arrival_listener(self._on_arrival)
        if self.endpoint.view_source is not None:
            # View installs reshape the monitored set.  Subscriptions are
            # volatile on both sides; the view manager sits below this
            # component in the stack, so its on_start (which clears the
            # subscriber list) has already run.
            self.endpoint.view_source.subscribe(self._on_view_change)
        node.spawn(self._beat_loop(), "fd-beat")
        node.spawn(self._check_loop(), "fd-check")

    def on_crash(self) -> None:
        self._last_heard = {}
        self._suspects = set()
        self._epochs = {}

    # -- queries ----------------------------------------------------------------

    def suspects(self) -> Set[int]:
        """The current set of suspected peers (never includes self)."""
        return set(self._suspects)

    def is_suspected(self, peer: int) -> bool:
        """True if ``peer`` is currently suspected."""
        return peer in self._suspects

    def epoch_of(self, peer: int) -> int:
        """Last epoch counter heard from ``peer`` (0 if never heard)."""
        return self._epochs.get(peer, 0)

    def timeout_for(self, peer: int) -> float:
        """Current (adapted) suspicion timeout for ``peer``."""
        return self._timeouts.get(peer, self.initial_timeout)

    # -- internals -------------------------------------------------------------------

    def _on_view_change(self, view) -> None:
        """Align the monitored set with a freshly installed view."""
        assert self.node is not None
        now = self.node.sim.now
        members = set(view.members)
        for peer in list(self._last_heard):
            if peer not in members:
                del self._last_heard[peer]
        removed = self._suspects - members
        self._suspects -= removed
        for peer in list(self._epochs):
            if peer not in members:
                del self._epochs[peer]
        last_sent = self.node.last_sent
        for peer in list(last_sent):
            if peer not in members:
                del last_sent[peer]
        for peer in members:
            if peer != self.node.node_id:
                self._last_heard.setdefault(peer, now)
        if removed:
            self.changed.notify()

    def _on_heartbeat(self, message: Heartbeat, sender: int) -> None:
        # Liveness was credited on arrival; only the epoch is news.
        self._epochs[sender] = max(self._epochs.get(sender, 0), message.epoch)

    def _on_arrival(self, sender: int) -> None:
        """Something — of any type — arrived from ``sender``."""
        if sender not in self._last_heard:
            return  # not monitored: another group's peer, or outside the view
        assert self.node is not None
        self._last_heard[sender] = self.node.sim.now
        if sender in self._suspects:
            # Wrong suspicion: rehabilitate and grow this peer's timeout.
            self._suspects.discard(sender)
            self._timeouts[sender] = (self.timeout_for(sender)
                                      + self.timeout_increment)
            self.node.sim.trace("fd", self.node.node_id, "rehabilitate",
                                peer=sender)
            self.changed.notify()

    def _beat_loop(self):
        """Break the silence on every link about to exceed ``period``."""
        assert self.node is not None
        node = self.node
        last_sent = node.last_sent
        beat = Heartbeat(self.epoch)
        while True:
            now = node.sim.now
            wake = now + self.period
            for peer in self.endpoint.peers():
                if peer == node.node_id:
                    continue
                due = last_sent.get(peer, -math.inf) + self.period
                if due <= now:
                    self.endpoint.send(peer, beat)
                elif due < wake:
                    wake = due
            yield wake - now

    def _check_loop(self):
        """Suspect each peer at its deadline, ``last_heard + timeout``."""
        assert self.node is not None
        node = self.node
        while True:
            now = node.sim.now
            wake = now + self.period
            newly_suspected = False
            for peer in self.endpoint.peers():
                if peer == node.node_id or peer in self._suspects:
                    continue
                last = self._last_heard.get(peer)
                if last is None:
                    # First sight of a freshly joined member: start its
                    # grace period now instead of instantly suspecting.
                    last = self._last_heard[peer] = now
                deadline = last + self.timeout_for(peer)
                if deadline <= now:
                    self._suspects.add(peer)
                    node.sim.trace("fd", node.node_id, "suspect",
                                   peer=peer)
                    newly_suspected = True
                elif deadline < wake:
                    wake = deadline
            if newly_suspected:
                self.changed.notify()
            yield wake - now
