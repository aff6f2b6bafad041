"""The basic Atomic Broadcast protocol (Figure 2 of the paper).

One consensus-driven ordering loop per process, in consecutive rounds:

* round ``k`` joins the ``k``-th consensus instance and moves the
  decided batch to the ``Agreed`` queue (deterministically ordered,
  duplicates eliminated).  The node's ``Unordered`` set is bound as its
  proposal only when the box needs a value — after Paxos's phase 1 —
  so the batch fills meanwhile; a round the node knows is already
  decided binds the empty set, and while it is more than one round
  behind it pulls each decision at once (DESIGN.md, substitutions);
* a **gossip task** decides, every ``gossip_interval``, what each peer
  is due: the payloads that peer is not known to hold, the ids it should
  send us, and the digest of Unordered, with ``k`` on every gossip sent;
  it both disseminates data messages (no reliable multicast needed over
  the fair-loss channel) and lets lagging processes discover how far
  behind they are (``gossip-k``).  Payloads go only where a proposal can
  be decided: the consensus box's :meth:`~repro.consensus.base.
  ConsensusService.leader_hint` names the process whose proposal it
  will decide, an originator pushes to it and its successor, and only it
  pulls; the decided ``Accept`` carries the batch to everyone else.
  With no hint every process may be decided, so payloads go to every
  peer (DESIGN.md, substitutions);
* **gossip rides the frames already going to a peer**: the endpoint asks
  this layer's rider on every send, and what is due to that peer leaves
  in the same packet.  A follower's new messages ride its next
  ``Promise`` to the leader, the frame that precedes the leader's bind,
  so they are in that batch.  The tick sends a gossip of its own only
  over a quiet link, one no frame crossed for a whole
  ``gossip_interval`` (the rule ``fd.alive`` follows), or to push the
  leader messages it lacks, since those set its next batch;
* the only stable-storage writes are the consensus box's — the
  proposal, logged inside ``propose`` as its first operation when a
  value is bound — so Atomic Broadcast adds **zero** log operations
  beyond the Consensus black box (Section 4.3);
* on initialisation **or** recovery the ``replay`` procedure re-runs
  every instance that has a logged proposal or a logged decision:
  proposals are idempotent and decisions are locked, so the Agreed
  queue is rebuilt exactly.

The replay and the steady-state sequencer are one loop: for each round,
"re-join it if it has a logged proposal or decision, otherwise wait for
work and join it".  This matches the paper's observation that the
current round is simply the first round with no logged proposal (here:
and no logged decision, since a process that never bound a value for a
round logged only its decision).
"""

from __future__ import annotations

import math
from typing import (Any, Dict, FrozenSet, Generator, List, Optional,
                    Sequence, Set)

from repro.consensus.base import ConsensusService
from repro.core.agreed import AgreedQueue, deterministic_order
from repro.core.ids import MessageId
from repro.core.messages import AppMessage, GossipMessage
from repro.errors import BroadcastError, OverloadError
from repro.runtime import AnyOf, NodeComponent, Signal
from repro.storage import codec
from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage

__all__ = ["BasicAtomicBroadcast", "DeliveryListener"]


class DeliveryListener:
    """Upcall interface for the application layer (Figure 1 / Figure 5).

    ``on_deliver`` receives each A-delivered message, in delivery order.
    ``on_restore`` replaces the application state wholesale — it fires
    when the queue is rebuilt from a checkpoint or adopted through a
    state transfer; ``state`` is whatever the application previously
    returned from its A-checkpoint upcall (``None`` for the initial
    state, the paper's ``A-checkpoint(⊥)``).
    """

    def on_deliver(self, message: AppMessage) -> None:
        """One ordered message became deliverable."""

    def on_restore(self, state: Any) -> None:
        """The delivery prefix was replaced by an application checkpoint."""


class _PeerGossip:
    """What one peer's latest digest said (volatile; replaced whole by
    its next one, so a peer that crashed and lost its Unordered set
    corrects us with its first digest).

    ``known`` is the peer's digest, ``missing`` the part of it this node
    held in neither Unordered nor Agreed on receipt (what to ask the
    peer for).
    """

    __slots__ = ("known", "missing")

    def __init__(self, known: FrozenSet[MessageId],
                 missing: FrozenSet[MessageId]):
        self.known = known
        self.missing = missing


class _Due:
    """What one peer is due and was not sent yet: payload ids, the ids
    to ask it for, and whether a digest is owed; ``fresh`` holds own
    messages submitted since the last tick, which ride only a frame
    that precedes the peer's bind."""

    __slots__ = ("push", "fresh", "want", "digest")

    def __init__(self) -> None:
        self.push: Set[MessageId] = set()
        self.fresh: Set[MessageId] = set()
        self.want: FrozenSet[MessageId] = frozenset()
        self.digest = False


_NO_IDS: FrozenSet[MessageId] = frozenset()
_NOTHING_HEARD = _PeerGossip(_NO_IDS, _NO_IDS)


class BasicAtomicBroadcast(NodeComponent):
    """Figure 2: minimal-logging Atomic Broadcast for crash-recovery.

    Parameters
    ----------
    endpoint:
        The node's transport endpoint (``send``/``multisend``/handlers).
    consensus:
        The consensus black box (Section 3.2 interface).
    gossip_interval:
        Period of the gossip task, in virtual time.
    """

    name = "atomic-broadcast"
    replays = True

    INCARNATION_KEY = ("ab", "incarnation")

    def __init__(self, endpoint: Endpoint, consensus: ConsensusService,
                 gossip_interval: float = 0.25, namespace: str = "",
                 order_rule=None):
        super().__init__()
        # A non-empty namespace isolates this instance's durable state —
        # one Atomic Broadcast stack per process group (Section 6.4).
        self.namespace = namespace
        if namespace:
            self.INCARNATION_KEY = (f"ab@{namespace}", "incarnation")
        # The predetermined deterministic batch-ordering rule
        # (Section 4.2): any rule works, but it MUST be cluster-uniform.
        self.order_rule = order_rule or deterministic_order
        self.endpoint = endpoint
        self.consensus = consensus
        self.gossip_interval = gossip_interval
        # Volatile protocol state (Figure 2 "initial values").
        self.k = 0
        self.unordered: Dict[MessageId, AppMessage] = {}
        self._digest: Optional[FrozenSet[MessageId]] = None
        self.agreed = AgreedQueue(self.order_rule)
        self.gossip_k = 0
        # Per-peer gossip knowledge, per peer the own messages pushed to
        # it and when (until ordered, or re-armed by evidence of a loss),
        # what it is due and when a frame to it last asked the rider,
        # where the digest rotation stands, the peer last seen ahead of
        # us, and the round we were in at the previous gossip tick.
        self._peers: Dict[int, _PeerGossip] = {}
        # Per process, the highest incarnation seen in an id it minted,
        # once it is past its first.
        self._incarnations: Dict[int, int] = {}
        self._pushed: Dict[int, Dict[MessageId, float]] = {}
        self._due: Dict[int, _Due] = {}
        self._spoke: Dict[int, float] = {}
        # The peers whose proposal may be decided, and whether the
        # consensus box named a leader, as of the last tick.
        self._binders: Sequence[int] = ()
        self._hinted = False
        self._digest_turn = 0
        self._ahead_peer = -1       # meaningful only while gossip_k > k
        self._last_tick_k = -1
        # Volatile plumbing.
        self.incarnation = 0
        self._seq = 0
        self._progress: Signal = None  # type: ignore[assignment]
        self._delivered: Signal = None  # type: ignore[assignment]
        self._listeners: List[DeliveryListener] = []
        self._sequencer_task = None
        self.replay_complete = False
        # Optional membership layer (a ViewManager); wired by the
        # harness before the node starts.  When set it is re-subscribed
        # as the first delivery listener on every start, so views
        # install before the application observes the command.
        self.view_manager = None
        self._joining = False
        # Set when the queue was restored or adopted whole: the
        # listeners must be handed it (:meth:`_announce_restore`).
        self._pending_restore = False
        # Run statistics (volatile; the harness samples them).
        self.replayed_rounds = 0
        # Optional admission control (a repro.flow.FlowController); wired
        # by the harness.  None (the default) admits everything — the
        # flow layer must be invisible unless explicitly configured.
        self.flow = None
        # Cumulative high-water mark of the Unordered buffer.  Survives
        # crashes deliberately: it observes the incarnation-spanning
        # worst case for the overload-safety verifier.
        self.unordered_high_water = 0

    # -- lifecycle (upon initialization or recovery) -------------------------------

    def on_start(self) -> None:
        node = self.node
        assert node is not None
        self.k = 0
        self.unordered = {}
        self._digest = None
        self.agreed = AgreedQueue(self.order_rule)
        self.gossip_k = 0
        self._forget_peers()
        self.replay_complete = False
        self._progress = node.sim.signal(f"ab-progress@{node.node_id}")
        self._delivered = node.sim.signal(f"ab-delivered@{node.node_id}")
        self._listeners = []
        if self.view_manager is not None:
            self._listeners.append(self.view_manager)
        self._bump_incarnation()
        self._seq = 0
        self._joining = False
        self._pending_restore = False
        self._restore_volatile_state()
        self.consensus.value_source = self._proposal_for
        self.consensus.thin = self._thin
        self.consensus.fill = self._fill
        self.endpoint.rider = self._rider
        self.endpoint.register(GossipMessage.type, self._on_gossip)
        # (a) fork task { sequencer and gossip }
        self._sequencer_task = node.spawn(self._sequencer(), "ab-sequencer")
        node.spawn(self._gossip_task(), "ab-gossip")

    def _bump_incarnation(self) -> None:
        """Durable incarnation bump: restarted sequence counters mint
        fresh message ids (see :mod:`repro.core.ids`).  The crash-stop
        baseline overrides this with a volatile counter."""
        assert self.node is not None
        self.incarnation = int(self.node.storage.retrieve(
            self.INCARNATION_KEY, 0)) + 1
        self.node.storage.log(self.INCARNATION_KEY, self.incarnation)

    def _restore_volatile_state(self) -> None:
        """Hook for subclasses: load checkpointed state before replay.

        The basic protocol logs nothing beyond consensus proposals, so the
        replay starts from round 0 with an empty queue.
        """

    def _forget_peers(self) -> None:
        self._peers = {}
        self._incarnations = {}
        self._pushed = {}
        self._due = {}
        self._spoke = {}
        self._binders = ()
        self._hinted = False
        self._digest_turn = 0
        self._ahead_peer = -1
        self._last_tick_k = -1

    def on_crash(self) -> None:
        self.k = 0
        self.unordered = {}
        self._digest = None
        self.agreed = AgreedQueue(self.order_rule)
        self.gossip_k = 0
        self._forget_peers()
        self._listeners = []
        self._sequencer_task = None
        self.replay_complete = False

    # -- upper-layer interface (Figure 1) ----------------------------------------------

    def add_listener(self, listener: DeliveryListener) -> None:
        """Subscribe to delivery upcalls (volatile; redo after recovery)."""
        self._listeners.append(listener)

    def submit(self, payload: Any) -> AppMessage:
        """Non-blocking ``A-broadcast``: enqueue and return immediately.

        The paper's blocking semantics (return only once the message is
        ordered or durably logged) are provided by :meth:`broadcast`.
        """
        assert self.node is not None
        if not self.node.up:
            raise BroadcastError("A-broadcast on a down process")
        # Sized before the sequence bump and the admission gate: a
        # mutable payload raises TypeError here, consuming no id, rather
        # than inside the gossip or propose that first sends it.
        codec.size(payload)
        if self.flow is not None:
            # Gate before the sequence bump: a rejected submission must
            # leave no trace (no id consumed, no buffer entry).
            reason = self.flow.try_admit(self.node.sim.now,
                                         len(self.unordered))
            if reason is not None:
                raise OverloadError(
                    f"A-broadcast rejected on node {self.node.node_id} "
                    f"({reason})", reason=reason)
        self._seq += 1
        message = AppMessage(
            MessageId(self.node.node_id, self.incarnation, self._seq),
            payload)
        self._admit_locally(message)
        for peer in self._binders:
            # Due at once to whoever may bind the next batch.  With a
            # leader, on the frame that precedes its bind (its Promise),
            # so it is in that batch — and on no other before the tick: a
            # message riding a frame of the round in flight would wake an
            # idle leader into a smaller round.  With no hint every peer
            # binds at activation, so any frame will do.
            due = self._owed(peer)
            (due.fresh if self._hinted else due.push).add(message.id)
        return message

    def _admit_locally(self, message: AppMessage) -> None:
        """``Unordered ← (Unordered ∪ {m}) − Agreed``."""
        if message not in self.agreed and message.id not in self.unordered:
            self.unordered[message.id] = message
            self._digest = None
            if message.id[1] > 1:   # a first incarnation needs no entry
                self._saw_incarnation(message.id[0], message.id[1])
            if len(self.unordered) > self.unordered_high_water:
                self.unordered_high_water = len(self.unordered)
            self._progress.notify()

    def _saw_incarnation(self, sender: int, incarnation: int) -> None:
        """Keep the highest incarnation seen in an id ``sender`` minted."""
        if incarnation > self._incarnations.get(sender, 0):
            self._incarnations[sender] = incarnation

    def broadcast(self, payload: Any) -> Generator[Any, Any, AppMessage]:
        """The paper's ``A-broadcast(m)``: returns once ``m ∈ Agreed``.

        If the process crashes before this returns, the message may or
        may not have been broadcast — exactly the paper's contract.
        """
        message = self.submit(payload)
        while message not in self.agreed:
            yield self._delivered.wait()
        return message

    def deliver_sequence(self) -> List[AppMessage]:
        """The paper's ``A-deliver-sequence()``: the explicit Agreed tail."""
        return self.agreed.sequence()

    def delivered_count(self) -> int:
        """Total messages delivered (including any checkpointed prefix)."""
        return len(self.agreed)

    def has_backlog(self, ordered=None) -> bool:
        """True while this node holds messages not yet known ordered.

        ``ordered`` is an optional collection of
        :class:`~repro.core.ids.MessageId` already delivered somewhere in
        the cluster (the harness's omniscient record): messages in it are
        not backlog for settling purposes — this node merely lags and
        will catch up by gossip, without needing another round.
        """
        if not self.unordered:
            return False
        if ordered is None:
            return True
        return any(mid not in ordered for mid in self.unordered)

    # -- gossip task --------------------------------------------------------------------

    def _gossip_task(self):
        while True:
            self._pull_missed_decision()
            self._gossip_once()
            yield self.gossip_interval

    def _gossip_once(self) -> None:
        """One tick: decide what each peer is due —
        ``gossip(k, payloads, ckpt_k, known, want, floor)`` — and send it
        now only over a quiet link, or to push a binder what it lacks.

        What is due waits in ``_due`` for the next frame to that peer,
        which carries it (:meth:`_rider`); a peer no frame reached for a
        whole ``gossip_interval`` gets it in a gossip of its own now, and
        so does a binder (:attr:`_binders`) due payloads: they set its
        next batch, and an idle leader sends nothing that would be
        answered.  So a busy link carries gossip frames only for those
        pushes, and nothing waits longer than one tick: a peer still owed
        something at the next tick had no frame since this one.  A peer is due something only when it
        has payloads, a ``want`` or a digest coming; ``k``, ``ckpt_k``
        and ``floor`` ride on every gossip sent.  Who gets what follows
        the consensus box's leader hint (``None``: any process's proposal
        may be decided, and every rule below applies to every peer):

        * ``payloads`` — a message this node originated is due to each
          push target (:meth:`_push_targets`: the leader and its
          successor) the first time that peer's view does not list it
          and it is not pushed there already — to the successor if it
          is still unordered — and again only once :meth:`_on_gossip`
          has re-armed it.  To a binder it is due already from its
          submission (:meth:`submit`), on a frame that precedes its
          bind, and what a peer asks for is due to it from the ask
          (:meth:`_on_gossip`);
        * ``known`` — a follower's digest is due to the leader every
          tick; the leader's to ``f = min(n−1, ⌈log₂ n⌉)`` peers per
          tick, in turn (:meth:`_digest_recipients`), which is the lag
          signal.  The others get ``None``, "no digest in this gossip";
        * ``want`` — the ids we lack from the peer's last digest, asked
          only by the leader: a follower would receive them again in
          the ``Accept``.
        """
        assert self.node is not None
        node_id = self.endpoint.node_id
        group = self.endpoint.peers()
        peers = [peer for peer in group if peer != node_id]
        for table in (self._peers, self._pushed, self._due, self._spoke):
            for gone in table.keys() - peers:
                del table[gone]
        unordered = self.unordered
        leader = self.consensus.leader_hint()
        if leader not in group:
            leader = None       # no hint, or one outside this view
        push_to = self._push_targets(group, peers, leader)
        self._binders = () if leader == node_id else push_to
        self._hinted = leader is not None
        digest_to = self._digest_recipients(group, peers, leader)
        pulls = leader is None or leader == node_id
        mine = {mid for mid in unordered if mid[0] == node_id}
        now = self.node.sim.now
        for peer in peers:
            view = self._peers.get(peer, _NOTHING_HEARD)
            push = self._unpushed(peer, mine) if peer in push_to else set()
            want = view.missing if pulls else _NO_IDS
            if want:    # some of it may have arrived since
                want = frozenset(mid for mid in want
                                 if mid not in unordered
                                 and mid not in self.agreed)
            digest = peer in digest_to
            due = self._due.get(peer)
            if due is not None:
                due.fresh.clear()   # push below, if still due
            if push or want or digest:
                due = self._owed(peer)
                due.push.update(push)
                due.want = want
                due.digest = due.digest or digest
            elif peer not in self._due:
                continue    # nothing to say: the link stays quiet
            # Payloads a binder lacks set its next batch, so they leave
            # now; the rest waits for a frame unless the link is quiet.
            if push and peer in self._binders \
                    or self._spoke.get(peer, -math.inf) \
                    + self.gossip_interval <= now:
                gossip = self._take(peer)
                if gossip is not None:
                    self.endpoint.send(peer, gossip)

    def _owed(self, peer: int) -> _Due:
        due = self._due.get(peer)
        if due is None:
            due = self._due[peer] = _Due()
        return due

    def _rider(self, dst: int,
               carrier: WireMessage) -> Optional[GossipMessage]:
        """The endpoint's rider: every frame to ``dst`` asks it, and
        carries whatever ``dst`` is due — fresh messages only if the
        frame precedes a bind.  O(1) when nothing is."""
        self._spoke[dst] = self.node.sim.now
        due = self._due.get(dst)
        if due is None or not (carrier.precedes_bind or due.push
                               or due.want or due.digest):
            return None
        return self._take(dst, carrier.precedes_bind)

    def _take(self, peer: int,
              with_fresh: bool = True) -> Optional[GossipMessage]:
        """The gossip that sends what ``peer`` is due, now, or ``None``
        when nothing of it is left; own payloads in it count as pushed
        now.  Without ``with_fresh`` the fresh messages stay due."""
        due = self._due.pop(peer, None)
        if due is None:
            return None
        ids, held = due.push, _NO_IDS
        if due.fresh:
            if with_fresh:
                ids = ids | due.fresh
            else:
                # They stay due, so the digest must not list them yet:
                # the peer would ask for what is on its way.
                self._owed(peer).fresh = held = due.fresh
        unordered = self.unordered
        push = [mid for mid in ids if mid in unordered]
        want = frozenset(mid for mid in due.want if mid not in unordered
                         and mid not in self.agreed)
        if not (push or want or due.digest):
            return None
        node_id = self.endpoint.node_id
        now = self.node.sim.now
        sent = self._pushed.setdefault(peer, {}) if push else None
        for mid in push:
            if mid[0] == node_id:
                sent[mid] = now
        known = None
        if due.digest:
            known = self._unordered_ids()
            if held:
                known = known.difference(held)
        # A joining node advertises round -1: it holds no usable
        # prefix, so any member treats it as maximally behind and
        # answers with a state transfer (Section 5.3) regardless of
        # how short the member's own history still is.
        return GossipMessage(
            -1 if self._joining else self.k,
            frozenset(unordered[mid] for mid in push),
            self._checkpoint_round(),
            known,
            want,
            self._gc_watermark())

    def _unordered_ids(self) -> FrozenSet[MessageId]:
        """The ids of Unordered, built once per change of it: every
        digest until the next change is this one object."""
        digest = self._digest
        if digest is None:
            digest = self._digest = frozenset(self.unordered)
        return digest

    def _unpushed(self, peer: int, mine: Set[MessageId]) -> Set[MessageId]:
        """The own messages of ``mine`` that ``peer``'s last digest does
        not list and that were not pushed to it."""
        return mine.difference(self._peers.get(peer, _NOTHING_HEARD).known,
                               self._pushed.get(peer, _NO_IDS))

    def _push_targets(self, group: Sequence[int], peers: List[int],
                      leader: Optional[int]) -> Sequence[int]:
        """The peers this node's own messages are pushed to.

        The first two of the group's order starting at the leader,
        skipping this node: the leader, whose proposal is the one
        decided, and its successor, which holds every payload already
        when it takes over.  The leader itself pushes to the next two.
        With no leader, every peer.
        """
        if leader is None:
            return peers
        start, size = group.index(leader), len(group)
        node_id = self.endpoint.node_id
        ring = (group[(start + i) % size] for i in range(size))
        return [peer for peer in ring if peer != node_id][:2]

    def _digest_recipients(self, group: Sequence[int], peers: List[int],
                           leader: Optional[int]) -> FrozenSet[int]:
        """The peers this tick's digest goes to.

        A follower's goes to the leader, every tick: it is what the
        leader pulls from.  The leader's — and every node's when there
        is no leader — goes to ``f = min(n−1, ⌈log₂ n⌉)`` peers,
        round-robin through the group's order, starting after this
        node's own id and advancing ``f`` a tick, so every peer hears the
        digest at least every ``⌈(n−1)/f⌉`` ticks.  Deterministic: it
        draws nothing from any random stream.
        """
        node_id = self.endpoint.node_id
        if leader is not None and leader != node_id:
            return frozenset((leader,))
        count = len(peers)
        fanout = min(count, count.bit_length())     # ⌈log₂(count + 1)⌉
        if fanout == count:
            return frozenset(peers)
        start = group.index(node_id) if node_id in group else 0
        first = start + self._digest_turn
        self._digest_turn = (self._digest_turn + fanout) % count
        return frozenset(peers[(first + i) % count] for i in range(fanout))

    def _pull_missed_decision(self) -> None:
        """Repair a lost Decide: ask the peer we know to be ahead.

        Consensus multisends a decision once.  Gossip tells us who has
        moved past round ``k``; if we have sat in ``k`` since the
        previous tick while a peer is past it, the copy addressed to us
        is more likely lost than late.
        """
        if self.gossip_k > self.k == self._last_tick_k \
                and not self._joining:
            self.consensus.pull_decision(self.k, self._ahead_peer)
        self._last_tick_k = self.k

    def _on_gossip(self, msg: GossipMessage, sender: int) -> None:
        """Reception of ``gossip(k_q, …)`` (executed atomically)."""
        assert self.node is not None
        for message in msg.payloads:
            self._admit_locally(message)
        if sender not in self.endpoint.peers():
            pass    # outside the view: the tick never gossips to it
        else:
            # What it asks for is due to it now, on the next frame
            # there; if that is lost, the peer asks again.
            served = [mid for mid in msg.want if mid in self.unordered]
            if served:
                self._owed(sender).push.update(served)
            if msg.known is not None:   # None: the last digest stands
                self._heard_digest(sender, frozenset(msg.known))
        self._note_peer_checkpoint(sender, msg.ckpt_k, msg.floor)
        if msg.k > self.k:
            self._heard_ahead(sender, msg.k)  # q was ahead
            self._progress.notify()
        else:
            self._peer_behind(sender, msg.k)

    def _heard_digest(self, sender: int, known: FrozenSet[MessageId]) -> None:
        """``sender``'s digest replaces what we believed it holds."""
        missing = known.difference(self.unordered)
        if missing:
            agreed = self.agreed
            missing = frozenset(mid for mid in missing if mid not in agreed)
        self._peers[sender] = _PeerGossip(known, missing)
        sent = self._pushed.get(sender)
        if sent:
            # Evidence of a lost push: the digest still lacks a message
            # pushed at least one gossip interval before it arrived, so
            # it was sent after the push should have landed.  Re-armed,
            # the next tick pushes it again.
            cutoff = self.node.sim.now - self.gossip_interval
            for mid in sent.keys() - known:
                if sent[mid] <= cutoff:
                    del sent[mid]

    def _heard_ahead(self, sender: int, peer_k: int) -> None:
        """``sender`` reported round ``peer_k``, past ours: raise
        ``gossip-k`` and remember who to pull decisions from, together,
        so a pull is never addressed to no one."""
        self.gossip_k = max(self.gossip_k, peer_k)
        self._ahead_peer = sender

    def _checkpoint_round(self) -> int:
        """Round covered by this node's durable checkpoint (basic: none)."""
        return 0

    def _gc_watermark(self) -> int:
        """Round below which no process needs a consensus record again,
        advertised as ``floor`` (basic: nothing is ever discarded)."""
        return 0

    def _note_peer_checkpoint(self, sender: int, ckpt_k: int,
                              floor: int) -> None:
        """Hook for subclasses: watermark bookkeeping for log truncation."""

    def _peer_behind(self, sender: int, peer_k: int) -> None:
        """Hook for subclasses: a peer lags behind us (state transfer)."""

    # -- sequencer task --------------------------------------------------------------------

    def _sequencer(self):
        assert self.node is not None
        self._announce_restore()
        while self._joining:
            # A joining node must not propose from round 0 — it waits for
            # a member's state transfer (which clears the gate and
            # re-forks this task).  Gossip keeps running meanwhile, so
            # members both learn of the joiner's submissions and see its
            # round number lag, triggering the transfer.
            yield self._progress.wait()
        # Replay runs through the last round the log holds a record of.
        # A round before it whose decision the log does not prove (its
        # Accept was lost here, or no commit point covers it) is re-joined
        # and its decision pulled, like any round a peer is ahead in.
        replay_until = self.consensus.highest_logged_instance()
        while True:
            if self.consensus.proposal_of(self.k) is not None \
                    or self.consensus.decided_value(self.k) is not None \
                    or (not self.replay_complete
                        and self.k <= replay_until):
                # Replay (or idempotent re-join of the in-flight round).
                if not self.replay_complete:
                    self.replayed_rounds += 1
            else:
                if not self.replay_complete:
                    self._finish_replay()
                # wait until (Unordered ≠ ∅) or (gossip-k > k) or
                # decided(k): a follower whose Unordered holds nothing of
                # its own learns the round's batch from the Decide alone.
                while not self.unordered and self.gossip_k <= self.k \
                        and self.consensus.decided_value(self.k) is None:
                    yield AnyOf([self._progress.wait(),
                                 self.consensus.decision_signal(self.k)
                                 .wait()])
            # Enter the round without a value: the box asks
            # _proposal_for when an attempt needs one, so the batch keeps
            # filling meanwhile, and a process that never proposes in
            # the round logs nothing for it.
            self.consensus.join(self.k)
            if self.gossip_k > self.k + 1:
                # More than one round behind: the decision is not on its
                # way, so pull it now rather than at the next tick.
                self.consensus.pull_decision(self.k, self._ahead_peer)
            result = yield from self.consensus.wait_decided(self.k)
            self._commit_round(result)

    def _proposal_for(self, k: int) -> Optional[FrozenSet[AppMessage]]:
        """The consensus box's value source: what this process proposes
        to instance ``k``, asked at the moment an attempt must bind one.

        The Unordered set for the current round — or nothing, when the
        round is known decided, locally or because a peer already moved
        past it: its decision is fixed, so the messages stay in
        Unordered for a later round.  ``None`` for any other instance: a
        driver left behind in a round this node skipped (by a state
        transfer) must not bind, since acceptors that discarded that
        round would accept anything.
        """
        if k != self.k:
            return None
        if self.gossip_k > k or self.consensus.decided_value(k) is not None:
            return frozenset()
        # Built from a set, the frozenset is sized for its members: half
        # the memory of one grown from the dict's values, and it is kept
        # as long as the round's records are.
        return frozenset(set(self.unordered.values()))

    def _thin(self, dst: int, value: FrozenSet[AppMessage]) -> Any:
        """The consensus box's :attr:`~repro.consensus.base.
        ConsensusService.thin`: ``value`` as sent to ``dst``, with the id
        in place of each message ``dst`` is known to hold — one it
        minted at the highest incarnation seen from it, or one its last
        digest lists.  ``value`` itself when there is none."""
        known = self._peers.get(dst, _NOTHING_HEARD).known
        top = self._incarnations.get(dst, 0)
        sent, named = [], False
        for message in value:
            mid = message.id
            if mid in known or mid[0] == dst and mid[1] >= top:
                sent.append(mid)
                named = True
            else:
                sent.append(message)
        return frozenset(sent) if named else value

    def _fill(self, value: Any) -> Optional[FrozenSet[AppMessage]]:
        """The consensus box's :attr:`~repro.consensus.base.
        ConsensusService.fill`: the value :meth:`_thin` made, with each id
        replaced by the message Unordered holds under it (a decoded id
        is a plain tuple, equal to its key); ``None`` if one is missing."""
        named = [item for item in value if type(item) is not AppMessage]
        if not named:
            return value
        unordered = self.unordered
        found = []
        for mid in named:
            message = unordered.get(mid)
            if message is None:
                return None
            found.append(message)
        # Kept members keep their stored hashes, and the result is sized
        # for its members: cheaper than a set built from scratch.
        return value.difference(named).union(found)

    def _commit_round(self, result) -> None:
        """Move the decided batch to Agreed and open the next round.

        Bracketed in the paper: executed atomically w.r.t. gossip handling
        (trivially true here — the kernel is single-threaded and this
        method never yields).
        """
        appended = self.agreed.append_batch(result)
        self.node.sim.trace("round", self.node.node_id, "commit",
                            k=self.k, batch=len(result),
                            new=len(appended))
        self.k += 1
        # Unordered ← Unordered − Agreed
        self._drop_unordered([message.id for message in appended])
        for message in appended:
            for listener in self._listeners:
                listener.on_deliver(message)
        if appended:
            self._delivered.notify()
        self._after_round()

    def _drop_unordered(self, ordered: List[MessageId]) -> None:
        """Remove ordered messages from Unordered; one of our own needs
        no more pushing, so its push times go too."""
        node_id = self.endpoint.node_id
        for mid in ordered:
            if self.unordered.pop(mid, None) is not None:
                self._digest = None
            if mid[0] == node_id:
                for sent in self._pushed.values():
                    sent.pop(mid, None)

    def _after_round(self) -> None:
        """Hook for subclasses (checkpointing, batching bookkeeping)."""

    def _announce_restore(self) -> None:
        """Hand a restored or adopted queue to the listeners: its
        checkpoint state, then its explicit suffix.

        Runs as the sequencer's first step — after every component's
        ``on_start`` has executed, so application listeners are already
        subscribed — and where a queue is adopted whole.
        """
        if not self._pending_restore:
            return
        self._pending_restore = False
        agreed = self.agreed
        self.node.sim.trace("deliver", self.node.node_id, "restore",
                            base=agreed.checkpointed_count,
                            count=len(agreed), k=self.k)
        for listener in self._listeners:
            listener.on_restore(agreed.checkpoint_state)
        for message in agreed.sequence():
            for listener in self._listeners:
                listener.on_deliver(message)

    def _finish_replay(self) -> None:
        """Replay done: the node is caught up with its own log."""
        assert self.node is not None
        self.replay_complete = True
        self.node.mark_recovery_complete()
