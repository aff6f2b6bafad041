"""The basic Atomic Broadcast protocol (Figure 2 of the paper).

One consensus-driven ordering loop per process, in consecutive rounds:

* round ``k`` joins the ``k``-th consensus instance and moves the
  decided batch to the ``Agreed`` queue (deterministically ordered,
  duplicates eliminated).  The node's ``Unordered`` set is bound as its
  proposal only when the box needs a value — after Paxos's phase 1 —
  so the batch fills meanwhile; a round the node knows is already
  decided binds the empty set, and while it is more than one round
  behind it pulls each decision at once (DESIGN.md, substitutions);
* a **gossip task** periodically sends a peer the payloads that peer
  is not known to hold, the ids it should send us, and the digest of
  Unordered, with ``k`` on every gossip sent; it both disseminates data
  messages (no reliable multicast needed over the fair-loss channel)
  and lets lagging processes discover how far behind they are
  (``gossip-k``).  Payloads go only where a proposal can be decided:
  the consensus box's :meth:`~repro.consensus.base.ConsensusService.
  leader_hint` names the process whose proposal it will decide, an
  originator pushes to it and its successor, and only it pulls; the
  decided ``Accept`` carries the batch to everyone else.  With no hint
  every process may be decided, so payloads go to every peer
  (DESIGN.md, substitutions);
* the **first push to the leader leaves in the Promise turn**, not at
  the tick: the box's ``value_wanted`` says who will bind a round
  (Paxos: the ``Prepare`` this node just promised), and the node's own
  new messages go to it at once, so they are in the batch it binds
  after phase 1.  The tick repairs — digests, ``want``, the GC floor,
  the successor's copy, a push re-armed on evidence of a loss — and
  pushes first only after an idle spell, when no round is open;
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

from typing import (Any, Dict, FrozenSet, Generator, List, Optional,
                    Sequence, Set)

from repro.consensus.base import ConsensusService
from repro.core.agreed import AgreedQueue, deterministic_order
from repro.core.ids import MessageId
from repro.core.messages import AppMessage, GossipMessage
from repro.errors import BroadcastError, OverloadError
from repro.runtime import AnyOf, NodeComponent, Signal
from repro.sizing import estimate_size
from repro.transport.endpoint import Endpoint

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
    peer for), ``asked`` what the peer asked of us since the last tick.
    """

    __slots__ = ("known", "missing", "asked")

    def __init__(self, known: FrozenSet[MessageId],
                 missing: FrozenSet[MessageId],
                 asked: FrozenSet[MessageId]):
        self.known = known
        self.missing = missing
        self.asked = asked


_NO_IDS: FrozenSet[MessageId] = frozenset()
_NOTHING_HEARD = _PeerGossip(_NO_IDS, _NO_IDS, _NO_IDS)


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

    INCARNATION_KEY = ("ab", "incarnation")

    # Volatile mirror of the durable incarnation counter, patrolled by the
    # WAL003 lint: a message id minted from an unlogged incarnation could
    # collide after recovery (Section 4.1's unique-id requirement).
    VOLATILE_FIELDS = ("incarnation",)

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
        self.agreed = AgreedQueue(self.order_rule)
        self.gossip_k = 0
        # Per-peer gossip knowledge, per peer the own messages pushed to
        # it and when (until ordered, or re-armed by evidence of a loss),
        # where the digest rotation stands, the peer last seen ahead of
        # us, and the round we were in at the previous gossip tick.
        self._peers: Dict[int, _PeerGossip] = {}
        self._pushed: Dict[int, Dict[MessageId, float]] = {}
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
        self.consensus.value_wanted = self._push_to_binder
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
        self.log_before_send(self.INCARNATION_KEY, self.incarnation)  # repro: noqa(REC003) -- Section 4.1: the incarnation MUST advance monotonically per recovery; a crash mid-bump only skips ids, never reuses one

    def log_before_send(self, key, value) -> None:
        """Write-ahead barrier: persist ``value`` under ``key`` before any
        message depending on it leaves this node.  The incarnation must be
        on disk before on_start spawns the gossip/sequencer tasks — they
        advertise it in every message id."""
        assert self.node is not None
        self.node.storage.log(key, value)

    def _restore_volatile_state(self) -> None:
        """Hook for subclasses: load checkpointed state before replay.

        The basic protocol logs nothing beyond consensus proposals, so the
        replay starts from round 0 with an empty queue.
        """

    def _forget_peers(self) -> None:
        self._peers = {}
        self._pushed = {}
        self._digest_turn = 0
        self._ahead_peer = -1
        self._last_tick_k = -1

    def on_crash(self) -> None:
        self.k = 0
        self.unordered = {}
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
        estimate_size(payload)
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
        return message

    def _admit_locally(self, message: AppMessage) -> None:
        """``Unordered ← (Unordered ∪ {m}) − Agreed``."""
        if message not in self.agreed and message.id not in self.unordered:
            self.unordered[message.id] = message
            if len(self.unordered) > self.unordered_high_water:
                self.unordered_high_water = len(self.unordered)
            self._progress.notify()

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
        """One tick: ``gossip(k, payloads, ckpt_k, known, want, floor)``
        to each peer it has something to say to.

        The tick repairs; the first push to a leader that is about to
        bind has already left beside this node's ``Promise``
        (:meth:`_push_to_binder`).  A gossip goes to a peer only when it
        carries payloads, a ``want`` or a digest due to that peer;
        ``k``, ``ckpt_k`` and ``floor`` ride on every one sent.  Who
        gets what follows the consensus box's leader hint (``None``: any
        process's proposal may be decided, and every rule below applies
        to every peer):

        * ``payloads`` — a message this node originated goes to each
          push target (:meth:`_push_targets`: the leader and its
          successor) the first time that peer's view does not list it
          and it is not pushed there already — to the successor if it
          is still unordered, to the leader after an idle spell with no
          round open — and again only once :meth:`_on_gossip` has
          re-armed it; plus whatever the peer asked for;
        * ``known`` — a follower's digest goes to the leader every tick;
          the leader's goes to ``f = min(n−1, ⌈log₂ n⌉)`` peers per
          tick, in turn (:meth:`_digest_recipients`), which is the lag
          signal.  The others get ``None``, "no digest in this gossip";
        * ``want`` — the ids we lack from the peer's last digest, asked
          only by the leader: a follower would receive them again in
          the ``Accept``.

        Peers in the same position share one message object, so it is
        built and sized once.
        """
        assert self.node is not None
        node_id = self.endpoint.node_id
        group = self.endpoint.peers()
        peers = [peer for peer in group if peer != node_id]
        for gone in self._peers.keys() - peers:
            del self._peers[gone]
        for gone in self._pushed.keys() - peers:
            del self._pushed[gone]
        # A joining node advertises round -1: it holds no usable
        # prefix, so any member treats it as maximally behind and
        # answers with a state transfer (Section 5.3) regardless of
        # how short the member's own history still is.
        k = -1 if self._joining else self.k
        ckpt_k = self._checkpoint_round()
        floor = self._gc_watermark()
        unordered = self.unordered
        known = frozenset(unordered)
        leader = self.consensus.leader_hint()
        if leader not in group:
            leader = None       # no hint, or one outside this view
        push_to = self._push_targets(group, peers, leader)
        digest_to = self._digest_recipients(group, peers, leader)
        pulls = leader is None or leader == node_id
        mine = {mid for mid in unordered if mid[0] == node_id}
        built: Dict[Any, GossipMessage] = {}
        for peer in peers:
            view = self._peers.get(peer, _NOTHING_HEARD)
            push = self._due(peer, mine) if peer in push_to else set()
            if view.asked:
                push.update(mid for mid in view.asked if mid in unordered)
                view.asked = _NO_IDS    # served; the peer re-asks
            want = view.missing if pulls else _NO_IDS
            if want:    # some of it may have arrived since
                want = frozenset(mid for mid in want
                                 if mid not in unordered
                                 and mid not in self.agreed)
            digest = peer in digest_to
            if not (push or want or digest):
                continue    # nothing to say: the link stays quiet
            key = (frozenset(push), want, digest)
            message = built.get(key)
            if message is None:
                message = GossipMessage(
                    k, frozenset(unordered[mid] for mid in push), ckpt_k,
                    known if digest else None, want, floor)
                built[key] = message
            self.endpoint.send(peer, message)

    def _push_to_binder(self, k: int, binder: int) -> None:
        """The consensus box's ``value_wanted``: ``binder`` will soon
        bind instance ``k``'s value, so the messages this node originated
        that it is not known to hold go to it now — those its last digest
        does not list and not pushed to it already — in one gossip with
        no digest and no ``want``.

        Paxos calls this in the turn that sends the ``Promise``, so the
        push rides with it (one datagram on live) and is in the binder's
        Unordered when it binds.  Recorded in ``_pushed`` like a tick
        push: it is not sent twice, and a digest that shows it lost
        re-arms it for the tick.
        """
        node_id = self.endpoint.node_id
        if binder == node_id or binder not in self.endpoint.peers():
            return
        push = self._due(binder, {mid for mid in self.unordered
                                  if mid[0] == node_id})
        if push:
            self.endpoint.send(binder, GossipMessage(
                -1 if self._joining else self.k,
                frozenset(self.unordered[mid] for mid in push),
                self._checkpoint_round(), None, _NO_IDS,
                self._gc_watermark()))

    def _due(self, peer: int, mine: Set[MessageId]) -> Set[MessageId]:
        """The own messages of ``mine`` to push to ``peer`` now — its
        last digest does not list them and they are not pushed to it
        already — recorded in ``_pushed`` as pushed now."""
        push = mine.difference(self._peers.get(peer, _NOTHING_HEARD).known,
                               self._pushed.get(peer, _NO_IDS))
        if push:
            sent = self._pushed.setdefault(peer, {})
            now = self.node.sim.now
            for mid in push:
                sent[mid] = now
        return push

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
        want = frozenset(msg.want)
        if sender not in self.endpoint.peers():
            pass    # outside the view: the tick never gossips to it
        elif msg.known is None:
            # No digest in this one: what the last digest said stands.
            if want:
                view = self._peers.get(sender)
                if view is None:
                    self._peers[sender] = _PeerGossip(_NO_IDS, _NO_IDS, want)
                else:
                    view.asked = view.asked | want
        else:
            known = frozenset(msg.known)
            missing = known.difference(self.unordered)
            if missing:
                agreed = self.agreed
                missing = frozenset(mid for mid in missing
                                    if mid not in agreed)
            self._peers[sender] = _PeerGossip(known, missing, want)
            sent = self._pushed.get(sender)
            if sent:
                # Evidence of a lost push: the digest still lacks a
                # message pushed at least one gossip interval before it
                # arrived, so it was sent after the push should have
                # landed.  Re-armed, the next tick pushes it again.
                cutoff = self.node.sim.now - self.gossip_interval
                for mid in sent.keys() - known:
                    if sent[mid] <= cutoff:
                        del sent[mid]
        self._note_peer_checkpoint(sender, msg.ckpt_k, msg.floor)
        if msg.k > self.k:
            self._heard_ahead(sender, msg.k)  # q was ahead
            self._progress.notify()
        else:
            self._peer_behind(sender, msg.k)

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
        return frozenset(self.unordered.values())

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
            self.unordered.pop(mid, None)
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
