"""Link-liveness failure detector with adaptive timeouts, scoped to
the peers someone waits on.

An eventually-perfect-style detector for the crash-recovery model.
Liveness is a property of the link, not of a message type: *any*
message a node consumes from a peer shows the peer was up a channel
delay ago, so every arrival refreshes that peer.  A peer is *suspected*
when nothing at all has arrived from it within the current (per-peer)
timeout.

Only *watched* peers have deadlines.  A node watches

* its Ω candidates — the lower ids in ascending order, up to and
  including the first unsuspected one (the lowest id watches no one);
* any peer a component declared interest in with :meth:`watch` (the
  Chandra–Toueg participant watches its round's coordinator).

A peer that enters the watched set gets a fresh grace period; one that
leaves it takes its suspicion with it, and :meth:`is_suspected` is false
for a peer nobody watches.  Symmetrically, a node sends an explicit
``ALIVE`` only while someone may be watching it — it trusts itself
(every lower id is suspected) or it coordinates an open round
(``watch`` of its own id) — and then only on links it left silent for
one ``period``.  In steady state only the leader beats, and its
consensus traffic usually makes even that unnecessary.

Two properties matter for the consensus layer built on top:

* **Completeness** — a process that stays down sends nothing, so its
  deadline passes at every up process that watches it.
* **Eventual accuracy** — a process in a watched role leaves no link
  silent for longer than ``period``, so every timeout starts at
  ``2.25 × period``: one lost beat plus delay variation.  Each time a
  suspicion proves wrong (something arrives from a suspected peer)
  that peer's timeout is increased, so in runs whose delays from the
  eventual leader are bounded, the leader is eventually never
  suspected.

A crashed leader is therefore suspected ``2.25 × period`` after its
last arrival: ``period`` alone sets how fast Ω fails over.

Arrivals cannot be stale evidence: the media hold a message for a
bounded delay, every re-push and retry is sent by a live sender's
timer, and a stalled node defers every arrival exactly as it used to
defer heartbeats.

The Atomic Broadcast layer itself never reads this detector — the paper's
protocol is failure-detector-free.  Only the consensus substrate (via the
Ω oracle in :mod:`repro.fdetect.omega`, or Chandra–Toueg's coordinator
check) uses it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set

from repro.runtime import NodeComponent, Signal
from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage

__all__ = ["Heartbeat", "HeartbeatDetector"]


class Heartbeat(WireMessage):
    """``ALIVE`` wire message: its arrival is all it says."""

    type = "fd.alive"
    type_id = 3
    fields = ()


class HeartbeatDetector(NodeComponent):
    """Per-node failure detector module (one oracle per process).

    Parameters
    ----------
    endpoint:
        The node's transport endpoint.
    period:
        The longest silence a node that may be watched leaves on a link.
        It also sets the starting suspicion timeout,
        :attr:`initial_timeout` = ``TIMEOUT_PERIODS × period``.
    timeout_increment:
        Additive increase applied each time a suspicion is refuted.
    """

    name = "failure-detector"

    # The starting timeout, in beat periods.  A watched peer that is up
    # leaves no link silent for longer than one period, so two periods
    # let one lost beat go by; the quarter period covers the variation
    # of the channel delay (sim links vary by at most 90 ms, less than
    # the 125 ms a quarter of the default period gives).
    TIMEOUT_PERIODS = 2.25

    def __init__(self, endpoint: Endpoint, period: float = 0.5,
                 timeout_increment: float = 0.5):
        super().__init__()
        self.endpoint = endpoint
        self.period = period
        self.timeout_increment = timeout_increment
        # Suspicions refuted by a later arrival, over the detector's
        # life: a run statistic, so a crash does not reset it.
        self.refutations = 0
        # Watched peers only: peer -> when something last arrived (or
        # when it entered the watched set, whichever is later).
        self._last_heard: Dict[int, float] = {}
        self._timeouts: Dict[int, float] = {}
        self._suspects: Set[int] = set()
        # Declared interest, counted: peer -> open watch() calls.
        self._interest: Dict[int, int] = {}
        self.changed: Signal = None  # type: ignore[assignment]

    # -- lifecycle -----------------------------------------------------------

    def on_start(self) -> None:
        node = self.node
        assert node is not None
        self.changed = node.sim.signal(f"fd-changed@{node.node_id}")
        self._last_heard = {}
        self._timeouts = {}
        self._suspects = set()
        self._interest = {}
        self._rewatch()
        self.endpoint.register(Heartbeat.type, self._on_heartbeat)
        node.add_arrival_listener(self._on_arrival)
        if self.endpoint.view_source is not None:
            # View installs reshape the candidate prefix.  Subscriptions
            # are volatile on both sides; the view manager sits below
            # this component in the stack, so its on_start (which clears
            # the subscriber list) has already run.
            self.endpoint.view_source.subscribe(self._on_view_change)
        node.spawn(self._beat_loop(), "fd-beat")
        node.spawn(self._check_loop(), "fd-check")

    def on_crash(self) -> None:
        self._last_heard = {}
        self._suspects = set()
        self._interest = {}

    # -- queries ----------------------------------------------------------------

    @property
    def initial_timeout(self) -> float:
        """Starting suspicion timeout per peer (widened on mistakes)."""
        return self.TIMEOUT_PERIODS * self.period

    def suspects(self) -> Set[int]:
        """The currently suspected peers (watched ones only; never self)."""
        return set(self._suspects)

    def is_suspected(self, peer: int) -> bool:
        """True if ``peer`` is watched and currently suspected."""
        return peer in self._suspects

    def timeout_for(self, peer: int) -> float:
        """Current (adapted) suspicion timeout for ``peer``."""
        return self._timeouts.get(peer, self.initial_timeout)

    def candidates(self) -> List[int]:
        """Ω's candidates: the group's ids below this node's own, in
        ascending order, up to and including the first unsuspected one.

        The last entry is the trusted leader unless it is suspected too,
        in which case this node trusts itself.  A node outside the
        installed view (removed, or not yet joined) has none: nobody
        waits on it, so it watches nobody and never beats.
        """
        assert self.node is not None
        me = self.node.node_id
        group = self.endpoint.peers()
        prefix: List[int] = []
        if me not in group:
            return prefix
        for peer in sorted(group):
            if peer == me:
                break
            prefix.append(peer)
            if peer not in self._suspects:
                break
        return prefix

    def trusts_self(self) -> bool:
        """True if this node is a member and every candidate is
        suspected (Ω outputs this node)."""
        assert self.node is not None
        return self.node.node_id in self.endpoint.peers() and all(
            peer in self._suspects for peer in self.candidates())

    # -- declared interest ---------------------------------------------------

    def watch(self, peer: int) -> None:
        """Declare interest in ``peer``'s liveness until :meth:`unwatch`.

        Watching this node's own id declares the converse — a role
        others wait on — and makes it beat on silent links meanwhile.
        Calls nest: a peer stays watched until every ``watch`` is
        matched by an ``unwatch``.
        """
        count = self._interest.get(peer, 0)
        self._interest[peer] = count + 1
        if count == 0:
            self._rewatch()

    def unwatch(self, peer: int) -> None:
        """Withdraw one :meth:`watch` of ``peer``."""
        count = self._interest.get(peer, 0)
        if count > 1:
            self._interest[peer] = count - 1
        elif count == 1:
            del self._interest[peer]
            self._rewatch()

    # -- internals -------------------------------------------------------------------

    def _rewatch(self) -> bool:
        """Align the watched set with the candidates and the declared
        interest; True if a suspicion left with its peer."""
        assert self.node is not None
        me = self.node.node_id
        members = set(self.endpoint.peers())
        wanted = set(self.candidates())
        wanted.update(peer for peer in self._interest
                      if peer != me and peer in members)
        dropped = False
        for peer in list(self._last_heard):
            if peer not in wanted:
                del self._last_heard[peer]
                if peer in self._suspects:
                    self._suspects.discard(peer)
                    dropped = True
        now = self.node.sim.now
        for peer in wanted:
            # Entering the set starts a fresh grace period: nothing was
            # listening for this peer until now.
            self._last_heard.setdefault(peer, now)
        return dropped

    def _on_view_change(self, view) -> None:
        """Align the watched set and the send clock with a new view."""
        assert self.node is not None
        members = set(view.members)
        last_sent = self.node.last_sent
        for peer in list(last_sent):
            if peer not in members:
                del last_sent[peer]
        if self._rewatch():     # a departed member takes its suspicion
            self.changed.notify()

    def _on_heartbeat(self, message: Heartbeat, sender: int) -> None:
        """Liveness was credited on arrival; the beat itself says nothing."""

    def _on_arrival(self, sender: int) -> None:
        """Something — of any type — arrived from ``sender``."""
        if sender not in self._last_heard:
            return  # not watched: nobody here is waiting on it
        assert self.node is not None
        self._last_heard[sender] = self.node.sim.now
        if sender in self._suspects:
            # Wrong suspicion: rehabilitate and grow this peer's timeout.
            self._suspects.discard(sender)
            self.refutations += 1
            self._timeouts[sender] = (self.timeout_for(sender)
                                      + self.timeout_increment)
            self.node.sim.trace("fd", self.node.node_id, "rehabilitate",
                                peer=sender)
            self._rewatch()
            self.changed.notify()

    def _beat_loop(self):
        """While in a watched role, break the silence on every link
        about to exceed ``period``."""
        assert self.node is not None
        node = self.node
        last_sent = node.last_sent
        beat = Heartbeat()
        while True:
            now = node.sim.now
            wake = now + self.period
            if node.node_id in self._interest or self.trusts_self():
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
        """Suspect each watched peer at its deadline,
        ``last_heard + timeout``."""
        assert self.node is not None
        node = self.node
        while True:
            now = node.sim.now
            newly = [peer for peer, last in self._last_heard.items()
                     if peer not in self._suspects
                     and last + self.timeout_for(peer) <= now]
            if newly:
                for peer in newly:
                    self._suspects.add(peer)
                    node.sim.trace("fd", node.node_id, "suspect", peer=peer)
                # A suspected candidate brings the next one in.
                self._rewatch()
                self.changed.notify()
            wake = now + self.period
            for peer, last in self._last_heard.items():
                if peer not in self._suspects:
                    wake = min(wake, last + self.timeout_for(peer))
            yield wake - now
