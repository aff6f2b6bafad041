"""Total order multicast to multiple groups (Section 6.4).

The paper closes by noting that consensus-based multi-group total order
multicast protocols "can be extended to crash-recovery systems using an
approach similar to the one that has been followed here".  This module
is that extension: a timestamp-agreement (Skeen-style) multicast layered
on one crash-recovery Atomic Broadcast instance *per group*.

The key idea that makes it recoverable: every state transition that must
be agreed within a group flows **through that group's Atomic Broadcast**,
so each member's multicast state is a deterministic function of its
groups' delivery sequences — exactly the property that lets the AB
replay procedure rebuild it after a crash with no extra logging.

Protocol (for a message ``m`` addressed to groups ``G``):

1. *Propose.*  The sender submits ``("mgp", mid, G, payload)`` to the AB
   of every group in ``G``.  When group ``g`` delivers it, every member
   of ``g`` deterministically assigns the group's proposed timestamp
   ``ts_g = clock_g + 1`` (identical at all members — it is a function
   of ``g``'s total order).
2. *Exchange.*  Members periodically announce their groups' proposed
   timestamps to the members of the other destination groups (direct
   fair-loss sends, retransmitted until finalisation — volatile state,
   rebuilt by replay; a member that has already finalised answers an
   announce with the proposals it knows, so a group whose only bridge
   member is down still learns the other group's timestamp).  The same
   announcements relay the message body itself, so a sender crash after
   a partial submit cannot wedge a group: any member that sees ``m``
   proposed in its group but missing in group ``h`` re-submits it to
   ``h``.
3. *Finalise.*  Whoever first collects proposed timestamps from all of
   ``G`` computes ``final = max(proposals)`` and submits
   ``("mgf", mid, final)`` to its group's AB.  The *first* such message
   in each group's order fixes ``m``'s final timestamp there and
   advances the group clock — again deterministically.
4. *Deliver.*  Each group delivers finalised messages in
   ``(final, mid)`` order, holding a message back while any still-
   unfinalised message could sort before it (its proposed timestamp is a
   lower bound on its final one).

Pairwise total order across groups follows because the final timestamp
of a message is a single global number and every common destination
group delivers by ``(final, mid)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.basic import BasicAtomicBroadcast, DeliveryListener
from repro.core.messages import AppMessage
from repro.errors import BroadcastError, OverloadError
from repro.runtime import NodeComponent
from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage

__all__ = ["MultiGroupMulticast", "MulticastListener"]

_PROPOSE = "mgp"
_FINAL = "mgf"

# A multicast message id: (sender, incarnation, sequence).
Mid = Tuple[int, int, int]


class TimestampAnnounce(WireMessage):
    """Periodic cross-group exchange: proposals + relayed bodies.

    ``entries`` is a tuple of
    ``(mid, dest_groups, payload, ((group, proposed_ts), ...))`` for
    messages the sender still considers pending, the proposals sorted
    by group.
    """

    type = "mg.announce"
    type_id = 27
    fields = ("entries",)

    def __init__(self, entries: Tuple[tuple, ...]):
        self.entries = entries


class MulticastListener:
    """Upcall interface for multicast deliveries."""

    def on_mdeliver(self, group: str, mid: Mid, payload: Any) -> None:
        """``m`` is delivered in ``group``'s final order."""


class _Pending:
    """Per-message multicast state (volatile; rebuilt by AB replay)."""

    __slots__ = ("mid", "groups", "payload", "proposed", "final",
                 "delivered_in", "final_submitted")

    def __init__(self, mid: Mid, groups: Tuple[str, ...], payload: Any):
        self.mid = mid
        self.groups = groups
        self.payload = payload
        self.proposed: Dict[str, int] = {}
        self.final: Optional[int] = None
        self.delivered_in: set = set()
        self.final_submitted = False


class _GroupTap(DeliveryListener):
    """Feeds one group's AB deliveries into the multicast layer."""

    def __init__(self, layer: "MultiGroupMulticast", group: str):
        self.layer = layer
        self.group = group

    def on_deliver(self, message: AppMessage) -> None:
        self.layer._on_group_delivery(self.group, message)

    def on_restore(self, state: Any) -> None:
        # Multigroup runs on the basic protocol (full replay); a restore
        # would require checkpointing the multicast state inside the AB
        # checkpoint, which is future work (documented in DESIGN.md).
        self.layer._reset_group(self.group)


class MultiGroupMulticast(NodeComponent):
    """Per-node multicast layer over one AB instance per joined group.

    Parameters
    ----------
    endpoint:
        The node's *base* (unscoped) endpoint, for cross-group traffic.
    group_abs:
        The per-group Atomic Broadcast instances this node runs, keyed
        by group name.
    memberships:
        Global group membership map ``{group: (node ids)}`` — static
        configuration, like the process set itself.
    announce_interval:
        Period of the timestamp-exchange/relay task.
    """

    name = "multigroup-multicast"

    def __init__(self, endpoint: Endpoint,
                 group_abs: Dict[str, BasicAtomicBroadcast],
                 memberships: Dict[str, Sequence[int]],
                 announce_interval: float = 0.3):
        super().__init__()
        self.endpoint = endpoint
        self.group_abs = dict(group_abs)
        self.memberships = {g: tuple(sorted(members))
                            for g, members in memberships.items()}
        self.announce_interval = announce_interval
        # Volatile state (rebuilt from group AB replay).
        self.clock: Dict[str, int] = {}
        self.pending: Dict[Mid, _Pending] = {}
        self.delivered: Dict[str, List[Tuple[Mid, Any]]] = {}
        self._finalized: Dict[str, List[Mid]] = {}
        self._listeners: List[MulticastListener] = []
        self._relayed: set = set()
        self._seq = 0
        self.mdelivered_count = 0
        # Optional admission control (repro.flow.FlowController).  The
        # gate sits here, not in the per-group ABs, so a multi-group
        # submit is admitted or rejected atomically — never half-sent.
        self.flow = None
        # Cumulative high-water mark of the pending table (spans
        # incarnations; sampled by the overload-safety verifier).
        self.pending_high_water = 0

    # -- lifecycle -------------------------------------------------------------

    def on_start(self) -> None:
        node = self.node
        assert node is not None
        self.clock = {g: 0 for g in self.group_abs}
        self.pending = {}
        self.delivered = {g: [] for g in self.group_abs}
        self._finalized = {g: [] for g in self.group_abs}
        self._listeners = []
        self._relayed = set()
        self._seq = 0
        for group, abcast in self.group_abs.items():
            abcast.add_listener(_GroupTap(self, group))
        self.endpoint.register(TimestampAnnounce.type, self._on_announce)
        node.spawn(self._announce_task(), "mg-announce")

    def on_crash(self) -> None:
        self.pending = {}
        self.clock = {}
        self.delivered = {}
        self._finalized = {}
        self._listeners = []

    def _reset_group(self, group: str) -> None:
        self.clock[group] = 0
        self.delivered[group] = []
        self._finalized[group] = []

    # -- upper-layer interface ----------------------------------------------------

    def add_listener(self, listener: MulticastListener) -> None:
        """Subscribe to multicast deliveries (volatile; redo on recovery)."""
        self._listeners.append(listener)

    def multicast(self, payload: Any, groups: Sequence[str]) -> Mid:
        """Total-order multicast ``payload`` to ``groups``.

        The sender must be a member of every destination group (the
        common closed-group model; open multicast would only need the
        relay path that already exists for fault tolerance).
        """
        assert self.node is not None
        destinations = tuple(sorted(set(groups)))
        if not destinations:
            raise BroadcastError("multicast needs at least one group")
        for group in destinations:
            if group not in self.group_abs:
                raise BroadcastError(
                    f"node {self.node.node_id} is not a member of "
                    f"group {group!r}")
        if self.flow is not None:
            # Admission is all-or-nothing: checked before the sequence
            # bump and before any group AB sees the proposal.
            reason = self.flow.try_admit(self.node.sim.now,
                                         len(self.pending))
            if reason is not None:
                raise OverloadError(
                    f"multicast rejected on node {self.node.node_id} "
                    f"({reason})", reason=reason)
        self._seq += 1
        first_ab = self.group_abs[destinations[0]]
        mid: Mid = (self.node.node_id, first_ab.incarnation, self._seq)
        for group in destinations:
            self.group_abs[group].submit(
                (_PROPOSE, mid, destinations, payload))
        return mid

    def delivered_in(self, group: str) -> List[Tuple[Mid, Any]]:
        """This node's delivery sequence for one of its groups."""
        return list(self.delivered.get(group, ()))

    # -- group AB deliveries (deterministic per group) -------------------------------

    def _on_group_delivery(self, group: str, message: AppMessage) -> None:
        payload = message.payload
        if not isinstance(payload, tuple) or not payload:
            return
        tag = payload[0]
        if tag == _PROPOSE:
            _, mid, destinations, body = payload
            self._on_propose(group, tuple(mid), tuple(destinations), body)
        elif tag == _FINAL:
            _, mid, final = payload
            self._on_final(group, tuple(mid), final)

    def _entry(self, mid: Mid, groups: Tuple[str, ...],
               payload: Any) -> _Pending:
        entry = self.pending.get(mid)
        if entry is None:
            entry = _Pending(mid, groups, payload)
            self.pending[mid] = entry  # repro: noqa(RES001) -- pending doubles as duplicate suppression: evicting a delivered entry would re-deliver a late duplicate propose
            if len(self.pending) > self.pending_high_water:
                self.pending_high_water = len(self.pending)
        return entry

    def _on_propose(self, group: str, mid: Mid,
                    destinations: Tuple[str, ...], body: Any) -> None:
        entry = self._entry(mid, destinations, body)
        if group in entry.proposed or group in entry.delivered_in:
            return  # duplicate propose (relay raced the original)
        self.clock[group] += 1
        entry.proposed[group] = self.clock[group]
        if len(destinations) == 1:
            # Single-group fast path: final == proposed, no exchange.
            self._on_final(group, mid, entry.proposed[group])
        else:
            self._maybe_submit_final(entry)
        self._try_deliver(group)

    def _on_final(self, group: str, mid: Mid, final: int) -> None:
        entry = self.pending.get(mid)
        if entry is None or group in entry.delivered_in:
            return
        if entry.final is None:
            entry.final = final
        if mid not in self._finalized[group]:
            self._finalized[group].append(mid)
            self.clock[group] = max(self.clock[group], final)
        self._try_deliver(group)

    def _maybe_submit_final(self, entry: _Pending) -> None:
        """First node with all proposals pushes the final timestamp."""
        if entry.final_submitted or entry.final is not None:
            return
        if set(entry.proposed) != set(entry.groups):
            return
        final = max(entry.proposed.values())
        entry.final_submitted = True
        for group in entry.groups:
            if group in self.group_abs and \
                    group not in entry.delivered_in:
                self.group_abs[group].submit((_FINAL, entry.mid, final))

    # -- delivery rule ------------------------------------------------------------------

    def _try_deliver(self, group: str) -> None:
        if group not in self.group_abs:
            return
        progressed = True
        while progressed:
            progressed = False
            candidates = [
                self.pending[mid] for mid in self._finalized[group]
                if group not in self.pending[mid].delivered_in]
            if not candidates:
                return
            candidates.sort(key=lambda e: (e.final, e.mid))
            head = candidates[0]
            # Hold back while a message not yet finalised *in this
            # group's order* could sort before it (its proposed
            # timestamp is a lower bound on its final one).  The test
            # must use group-local knowledge only: a bridge node that
            # already learned the final through its other group must
            # still wait for this group's own finalisation position,
            # or it would deliver earlier than pure members.
            blockers = [
                entry for entry in self.pending.values()
                if group in entry.proposed
                and group not in entry.delivered_in
                and entry.mid not in self._finalized[group]
                and (entry.proposed[group], entry.mid)
                < (head.final, head.mid)]
            if blockers:
                return
            self._deliver(group, head)
            progressed = True

    def _deliver(self, group: str, entry: _Pending) -> None:
        entry.delivered_in.add(group)
        self.delivered[group].append((entry.mid, entry.payload))
        self.mdelivered_count += 1
        for listener in self._listeners:
            listener.on_mdeliver(group, entry.mid, entry.payload)

    # -- cross-group exchange and relay ---------------------------------------------------

    def _announce_task(self):
        while True:
            yield self.announce_interval
            self._announce_once()

    def _announce_once(self) -> None:
        """Send proposals (and relay bodies) for unfinalised messages."""
        outbox: Dict[int, list] = {}
        for entry in self.pending.values():
            if entry.final is not None or len(entry.groups) == 1:
                continue
            targets = set()
            for group in entry.groups:
                if group not in entry.proposed:
                    # Relay the body to groups that have not proposed yet
                    # (covers sender crash after a partial submit).
                    targets.update(self.memberships.get(group, ()))
            for group in entry.groups:
                targets.update(self.memberships.get(group, ()))
            record = (entry.mid, entry.groups, entry.payload,
                      tuple(sorted(entry.proposed.items())))
            for target in targets:
                if target != self.endpoint.node_id:
                    outbox.setdefault(target, []).append(record)
        for target, entries in outbox.items():
            self.endpoint.send(target, TimestampAnnounce(tuple(entries)))

    def _on_announce(self, msg: TimestampAnnounce, sender: int) -> None:
        answers = []
        for record in msg.entries:
            mid = tuple(record[0])
            groups = tuple(record[1])
            payload = record[2]
            proposals = dict(record[3])
            entry = self._entry(mid, groups, payload)
            if entry.final is not None:
                # We stopped announcing this entry when we learned its
                # final timestamp, but the sender has not finalised it
                # and may have no one else to learn our groups' proposals
                # from (the only bridge member is down).  Answer stale
                # traffic with what we know, the way Paxos answers with
                # Decide; an answer adds nothing to an answer, so the
                # exchange ends.
                if any(group not in proposals for group in entry.proposed):
                    answers.append((record[0], record[1], payload, tuple(
                        sorted({**proposals, **entry.proposed}.items()))))
                continue
            for group, ts in proposals.items():
                # CRITICAL for determinism: a proposal for one of *my*
                # groups may only come from that group's own delivery
                # order (it also advances the group clock there); gossip
                # may only teach me about groups I am not in.
                if group not in self.group_abs:
                    entry.proposed.setdefault(group, int(ts))
            # Relay into my own groups that have not proposed it yet
            # (covers a sender that crashed after a partial submit).
            for group in groups:
                if (group in self.group_abs
                        and group not in entry.proposed
                        and group not in entry.delivered_in
                        and (mid, group) not in self._relayed):
                    self._relayed.add((mid, group))  # repro: noqa(RES001) -- relay dedup must remember every (mid, group) pair a crashed sender might leave half-submitted
                    self.group_abs[group].submit(
                        (_PROPOSE, mid, groups, payload))
            self._maybe_submit_final(entry)
        if answers:
            self.endpoint.send(sender, TimestampAnnounce(tuple(answers)))
