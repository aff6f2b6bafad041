"""The alternative Atomic Broadcast protocol (Figures 3 and 4, Section 5).

Extends the basic protocol with four independently-toggleable features,
each trading extra log operations for a practical benefit:

* **Durable checkpoints of ``(k, Agreed)``** (Section 5.1) — a periodic
  checkpoint task makes the round number and the Agreed queue durable,
  so recovery restarts from the checkpoint instead of replaying every
  consensus instance from round 0.  Consensus logs below the checkpoint
  are discarded (Figure 4, line c).  The durable queue is a **base
  record plus a chain of segments**: a tick logs only the messages
  appended to Agreed since the previous tick, under a key naming the
  round it starts from; recovery loads the base and follows the chain
  link by link.
* **Application-level checkpoints** (Section 5.2) — when the application
  registers an ``A-checkpoint`` upcall, the delivered prefix of the
  Agreed queue is replaced by ``(A-checkpoint(σ), VC(σ))``: the log stops
  growing with history and the replay phase shrinks to the suffix.  This
  is the *fold*: it rewrites the base and deletes the segments, once
  the segments have grown as large as the base they extend — so the log
  stays within about twice the state and the rewrite costs O(1) per
  delivered message.
* **State transfer** (Section 5.3) — a process that sees a peer more than
  ``delta`` rounds behind sends it a ``state`` message carrying the
  decided batches of the rounds the peer missed, which the
  garbage-collection watermark retains for exactly that peer; the late
  process aborts its sequencer, commits them, and re-forks the sequencer
  past the missed instances (Figure 3, lines d–f).  Only when a needed
  decision is gone does the message carry ``(k_p − 1, Agreed_p)`` whole.
* **Logged Unordered set** (Sections 5.4/5.5) — ``A-broadcast`` logs the
  message (incrementally, by default: only the new element is written)
  and returns as soon as it is durable, instead of waiting for the
  message to be ordered; batches then flow into single consensus
  instances.

Every feature defaults to the paper's recommended setting; construct
:class:`AlternativeConfig` to explore the trade-offs (the E3–E7
benchmarks do exactly that).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Tuple

from repro.consensus.base import ConsensusService
from repro.core.agreed import AgreedQueue
from repro.core.basic import BasicAtomicBroadcast
from repro.core.messages import AppMessage, StateMessage
from repro.storage import codec
from repro.transport.endpoint import Endpoint

__all__ = ["AlternativeAtomicBroadcast", "AlternativeConfig"]


class AlternativeConfig:
    """Feature switches of the Section 5 protocol.

    Parameters
    ----------
    checkpoint_interval:
        Period of the checkpoint task (virtual time); ``None`` disables
        durable checkpoints (degenerating towards the basic protocol).
        The paper: "the frequency of this checkpointing has no impact on
        correctness and is an implementation choice".  A tick logs the
        messages delivered since the previous one, so the interval
        trades log operations against replay length, not against bytes.
    delta:
        De-synchronisation (in rounds) that triggers a state transfer to
        a lagging peer; ``None`` disables state transfer.
    log_unordered:
        When ``True``, ``A-broadcast`` logs the Unordered set and returns
        once the message is durable (Section 5.4).
    incremental:
        When ``True`` (and ``log_unordered``), only the new message is
        appended to the log instead of re-logging the whole set
        (Section 5.5).
    state_resend_interval:
        Minimum virtual time between two state messages to the same peer
        (a practical throttle; the paper sends on every trigger).
    """

    def __init__(self,
                 checkpoint_interval: Optional[float] = 2.0,
                 delta: Optional[int] = 3,
                 log_unordered: bool = False,
                 incremental: bool = True,
                 state_resend_interval: float = 1.0):
        if delta is not None and delta < 1:
            raise ValueError("delta must be >= 1 (or None to disable)")
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        self.checkpoint_interval = checkpoint_interval
        self.delta = delta
        self.log_unordered = log_unordered
        self.incremental = incremental
        self.state_resend_interval = state_resend_interval


class AlternativeAtomicBroadcast(BasicAtomicBroadcast):
    """Figures 3–4: the basic protocol plus Section 5 optimisations."""

    name = "atomic-broadcast-alt"

    # The durable queue: the base record ``(k, Agreed)`` under
    # CHECKPOINT_KEY, extended by segments ``(from_k, to_k, messages)``
    # under SEGMENT_KEY + (from_k,) — each names the round the queue
    # must stand at for it to apply, so the chain is followed by lookup.
    CHECKPOINT_KEY = ("ab", "ckpt")
    SEGMENT_KEY = ("ab", "seg")
    UNORDERED_KEY = ("ab", "unordered")
    JOINING_KEY = ("ab", "joining")

    def __init__(self, endpoint: Endpoint, consensus: ConsensusService,
                 gossip_interval: float = 0.25,
                 config: Optional[AlternativeConfig] = None,
                 namespace: str = ""):
        super().__init__(endpoint, consensus, gossip_interval, namespace)
        if namespace:
            self.CHECKPOINT_KEY = (f"ab@{namespace}", "ckpt")
            self.SEGMENT_KEY = (f"ab@{namespace}", "seg")
            self.UNORDERED_KEY = (f"ab@{namespace}", "unordered")
            self.JOINING_KEY = (f"ab@{namespace}", "joining")
        self.config = config or AlternativeConfig()
        self._app_checkpoint: Optional[Callable[[], Any]] = None
        self._last_state_sent: dict = {}
        self.ckpt_k = 0
        self._peer_ckpt: dict = {}
        self._floor_heard = 0
        # The durable chain as this incarnation knows it: how many
        # messages it holds, and the logged size of the base record and
        # of the segments chained to it (what the fold rule compares —
        # taken from the storage metrics as each record is written,
        # never by re-measuring).  A base of 0 bytes means nothing
        # durable holds the current queue: the next tick writes one.
        self._durable_count = 0
        self._base_bytes = 0
        self._segment_bytes = 0
        # Statistics.
        self.checkpoints_taken = 0
        self.state_transfers_sent = 0
        self.state_transfers_adopted = 0
        self.rounds_skipped = 0
        self.instances_discarded = 0

    # -- upper-layer additions (Figure 5) --------------------------------------------

    def register_checkpoint_provider(self,
                                     provider: Callable[[], Any]) -> None:
        """Register the application's ``A-checkpoint`` upcall.

        ``provider()`` must return a snapshot of the application state
        that *contains* every message delivered so far.  Volatile: re-do
        after each recovery (the application's ``on_start``).
        """
        self._app_checkpoint = provider

    def broadcast(self, payload: Any) -> Generator[Any, Any, AppMessage]:
        """``A-broadcast(m)`` with the Section 5.4 early return.

        When the Unordered set is logged, durability — not ordering — is
        what guarantees the message survives a crash of its sender, so
        the call returns as soon as the log write completes.
        """
        if not self.config.log_unordered:
            result = yield from super().broadcast(payload)
            return result
        return self.submit(payload)

    # -- lifecycle ------------------------------------------------------------------------

    def on_start(self) -> None:
        self._last_state_sent = {}
        self.ckpt_k = 0
        self._peer_ckpt = {}
        self._floor_heard = 0
        self._durable_count = 0
        self._base_bytes = 0
        self._segment_bytes = 0
        super().on_start()
        self.endpoint.register(StateMessage.type, self._on_state)
        if self.config.checkpoint_interval is not None:
            assert self.node is not None
            self.node.spawn(self._checkpoint_task(), "ab-checkpoint")

    def mark_joining(self) -> None:
        """Flag this stack as a joiner bootstrapping by state transfer.

        Called by the harness before the node starts (the flag is
        durable, so a crash mid-join resumes the join).  A joining node's
        sequencer proposes nothing: the node would otherwise start
        proposing at round 0, whose consensus logs the members may have
        long since truncated (Figure 4, line c).  Instead it advertises
        round ``-1`` in its gossip — "I have nothing; transfer
        everything" — and any member answers with a ``state`` message,
        which completes the join (:meth:`_complete_join`).  Each start
        that reads the flag back reports the node joining.
        """
        assert self.node is not None
        self.node.storage.log(self.JOINING_KEY, True)
        self._joining = True

    def _restore_volatile_state(self) -> None:
        """Recovery, Figure 3: retrieve ``(k, Agreed)`` and ``Unordered``."""
        assert self.node is not None
        storage = self.node.storage
        self._joining = bool(storage.retrieve(self.JOINING_KEY, False))
        if self._joining:
            self.node.sim.trace("state-transfer", self.node.node_id,
                                "joining")
        stored = storage.retrieve(self.CHECKPOINT_KEY, None)
        if stored is not None:
            stored_k, agreed_plain = stored
            self.k = int(stored_k)
            self.agreed = AgreedQueue.from_plain(agreed_plain,
                                                 self.order_rule)
            self._base_bytes = codec.size(stored)
            # Follow the chain, and only the chain: the segment filed
            # under the round the queue stands at extends it; the first
            # round with none ends it.  Segments a fold superseded but
            # crashed before deleting sit below the base and are never
            # looked up; one whose contents contradict its key is a gap.
            while True:
                segment = storage.retrieve(self.SEGMENT_KEY + (self.k,),
                                           None)
                if segment is None:
                    break
                from_k, to_k, messages = segment
                if from_k != self.k or to_k <= from_k:
                    break
                self.agreed.extend(messages)
                self.k = int(to_k)
                self._segment_bytes += codec.size(segment)
            self.ckpt_k = self.k
            self._durable_count = len(self.agreed)
            self._pending_restore = True
            # Re-arm the consensus participation floor before any
            # message of the new incarnation arrives (the floor itself
            # is volatile).  The checkpoint round over-approximates what
            # was actually garbage-collected, so only do this once the
            # membership has ever changed: a GC that can strand a
            # process requires the watermark to have passed a down
            # process's checkpoint, which only an ordered removal makes
            # possible — and that removal's epoch is durable in the view
            # record by the time such a GC runs.  Under a static view
            # the floor stays 0 and recovery behaves exactly as before.
            if self.view_manager is not None \
                    and self.view_manager.epoch() > 0:
                self.consensus.set_instance_floor(self.k)
        if self.config.log_unordered:
            for message in storage.retrieve_list(self.UNORDERED_KEY):
                # Volatile admission only (the base class never logs):
                # these messages are already in the durable Unordered
                # list, and the incremental-mode append in our override
                # would re-append every one of them on each recovery,
                # doubling the log per crash.
                super()._admit_locally(message)

    # -- Section 5.4/5.5: logged Unordered set ------------------------------------------------

    def _admit_locally(self, message: AppMessage) -> None:
        if message.id in self.unordered or message in self.agreed:
            return  # idempotent: duplicates are dropped, nothing logged
        super()._admit_locally(message)
        if self.config.log_unordered:
            assert self.node is not None
            if self.config.incremental:
                # Only the new part of the set is written (Section 5.5).
                self.node.storage.append(self.UNORDERED_KEY, message)
            else:
                self.node.storage.log(
                    self.UNORDERED_KEY, tuple(self.unordered.values()))

    # -- Section 5.1/5.2: checkpoint task (Figure 4) --------------------------------------------

    def _checkpoint_task(self):
        assert self.node is not None
        interval = self.config.checkpoint_interval
        while True:
            yield interval
            self.take_checkpoint()

    def take_checkpoint(self) -> None:
        """One pass of the checkpoint task (also callable explicitly).

        Makes the queue durable up to the current round by logging what
        was appended since the last pass — or, once the segments have
        grown as large as the base they extend, by folding everything
        into a fresh base.  Atomic w.r.t. round commits and gossip
        handling (the bracketed line b of Figure 4): the kernel is
        single-threaded and this method never yields; as one turn of the
        checkpoint task its writes are one journal frame.
        """
        assert self.node is not None
        if self._segment_bytes >= self._base_bytes:
            self._write_base()
        if self.k > self.ckpt_k:
            appended = self.agreed.tail(
                len(self.agreed) - self._durable_count)
            self._segment_bytes += self._log_sized(
                self.SEGMENT_KEY + (self.ckpt_k,),
                (self.ckpt_k, self.k, appended))
            self.ckpt_k = self.k
            self._durable_count = len(self.agreed)
        # (c) Proposed[i] can be discarded from the log — but only below
        # the *global* watermark (the lowest checkpointed round any peer
        # has reported): instances above it may still be replayed by a
        # lagging peer, and discarding their decisions would strand it.
        self.instances_discarded += \
            self.consensus.discard_instances_below(self._gc_watermark())
        if self.config.log_unordered:
            # Rewrite the Unordered log compactly (drops ordered messages).
            self.node.storage.log(self.UNORDERED_KEY,
                                  tuple(self.unordered.values()))
        self.checkpoints_taken += 1
        self.node.sim.trace("checkpoint", self.node.node_id, "taken",
                            k=self.k, watermark=self._gc_watermark())

    def _write_base(self) -> None:
        """Fold: log the whole ``(k, Agreed)`` record and drop the
        segments it supersedes, in the one journal frame of the turn."""
        assert self.node is not None
        if self._app_checkpoint is not None:
            # (b) Agreed ← (A-checkpoint(Agreed), VC(Agreed))
            self.agreed.compact(self._app_checkpoint())
        self._base_bytes = self._log_sized(
            self.CHECKPOINT_KEY, (self.k, self.agreed.to_plain()))
        self.ckpt_k = self.k
        self._durable_count = len(self.agreed)
        self._segment_bytes = 0
        self.node.storage.delete_prefix(self.SEGMENT_KEY)

    def _log_sized(self, key: Tuple[Any, ...], value: Any) -> int:
        """``log`` and return the bytes it was charged — the record's
        size, measured once, by the write that had to measure it."""
        assert self.node is not None
        storage = self.node.storage
        before = storage.metrics.bytes_logged
        storage.log(key, value)
        return storage.metrics.bytes_logged - before

    def _checkpoint_round(self) -> int:
        return self.ckpt_k

    def _note_peer_checkpoint(self, sender: int, ckpt_k: int,
                              floor: int) -> None:
        previous = self._peer_ckpt.get(sender, 0)
        if ckpt_k > previous:
            self._peer_ckpt[sender] = ckpt_k
        if floor > self._floor_heard:
            self._floor_heard = floor

    def _gc_watermark(self) -> int:
        """Highest round below which no process can ever need a consensus
        log entry again.

        Every process restarts at its own durable checkpoint round, so
        instances below ``min(checkpointed rounds)`` are dead globally.
        Two lower bounds on that minimum are at hand: the lowest round
        each peer advertised (one not heard from contributes 0), and the
        highest ``floor`` any peer advertised — its own watermark, by
        induction a lower bound too, and all a follower has once it hears
        only the leader.  Either is safe, so the higher one is taken,
        capped by this node's own checkpoint.
        """
        assert self.node is not None
        lowest = self.ckpt_k
        for peer in self.endpoint.peers():
            if peer == self.node.node_id:
                continue
            lowest = min(lowest, self._peer_ckpt.get(peer, 0))
        return min(self.ckpt_k, max(lowest, self._floor_heard))

    # -- Section 5.3: state transfer ----------------------------------------------------------------

    def _peer_behind(self, sender: int, peer_k: int) -> None:
        """Gossip reception, line d: ``k_p > k_q + Δ`` ⇒ send state.

        A negative ``peer_k`` marks a *joining* peer (see
        :meth:`mark_joining`): it is answered whatever the lag, since its
        join cannot complete without a state message.
        """
        delta = self.config.delta
        assert self.node is not None
        if delta is None or sender == self.node.node_id:
            return
        # A peer is *stranded* when the round it is working on lies
        # below our garbage-collection floor: its decision records are
        # gone here, no Decide reply can ever reach it and acceptors
        # below their floor stay silent, so a state message is its only
        # way forward — send one whatever the lag.  Only possible after
        # a reconfiguration (the watermark passes a down peer's
        # checkpoint only once a removal excludes it), so the epoch gate
        # keeps reordered stragglers in static runs on the plain Δ rule.
        stranded = (self.view_manager is not None
                    and self.view_manager.epoch() > 0
                    and 0 <= peer_k < self.consensus.instance_floor)
        if peer_k >= 0 and not stranded and self.k <= peer_k + delta:
            return
        now = self.node.sim.now
        last = self._last_state_sent.get(sender, -float("inf"))
        if now - last < self.config.state_resend_interval:
            return
        self._last_state_sent[sender] = now
        view_plain = (self.view_manager.to_plain()
                      if self.view_manager is not None else None)
        missed = self._missed_batches(peer_k)
        if missed is not None:
            message = StateMessage(self.k - 1, view_plain=view_plain,
                                   from_k=peer_k, batches=missed)
        else:
            message = StateMessage(self.k - 1, self.agreed.to_plain(),
                                   view_plain)
        self.endpoint.send(sender, message)
        self.state_transfers_sent += 1
        self.node.sim.trace("state-transfer", self.node.node_id, "sent",
                            to=sender, k=self.k - 1,
                            whole_queue=missed is None)

    def _missed_batches(self, peer_k: int) -> Optional[Tuple[Any, ...]]:
        """The decided batches of rounds ``peer_k … k−1``, or ``None``
        when one of them is no longer held here.

        The watermark keeps them: this node discards decisions only
        below the lowest checkpoint round any peer advertised, and a
        peer's round is never below its own checkpoint.  What it cannot
        keep is a decision it never logged (it skipped the round through
        a state transfer itself) or one below the floor a reconfiguration
        let it pass (a stranded peer); a joiner (round −1) has no prefix
        for any batch to extend.
        """
        if peer_k < 0:
            return None
        batches = []
        for k in range(peer_k, self.k):
            batch = self.consensus.decided_value(k)
            if batch is None:
                return None
            batches.append(batch)
        return tuple(batches)

    def _on_state(self, msg: StateMessage, sender: int) -> None:
        """Reception of ``state(k_q, …)`` (Figure 3, lines e–f)."""
        if self.view_manager is not None:
            # Adopt the sender's view before delivering what the message
            # carries, so any reconfiguration commands inside it are
            # recognised as already applied.
            self.view_manager.adopt_plain(msg.view_plain)
        whole_queue = msg.from_k is None
        connects = whole_queue or msg.from_k <= self.k
        if self.k <= msg.k and connects:
            # p is late: skip the missed instances
            assert self.node is not None
            # (e) terminate task {sequencer}
            if self._sequencer_task is not None:
                self._sequencer_task.kill()
            skipped = msg.k + 1 - self.k
            if whole_queue:
                self._adopt_queue(msg)
            else:
                # Commit each missed round as if its decision had just
                # been learned: the same ⊕, the same delivery stream.
                # The new messages sit past the durable mark, so the
                # next tick logs them as an ordinary segment.
                for batch in msg.batches[self.k - msg.from_k:]:
                    self._commit_round(batch)
            self.rounds_skipped += skipped
            self.state_transfers_adopted += 1
            self.node.sim.trace("state-transfer", self.node.node_id,
                                "adopted", from_=sender, skipped=skipped,
                                new_k=self.k, whole_queue=whole_queue)
            if self._joining:
                self._complete_join()
            self._delivered.notify()
            # (f) fork task {sequencer}
            self._sequencer_task = self.node.spawn(
                self._sequencer(), "ab-sequencer")
        else:
            # Small de-sync — or batches that start past our round: we
            # recovered further back after the sender read our gossip,
            # and our next gossip earns a message that reaches back.
            if msg.k > self.k:
                self._heard_ahead(sender, msg.k)
            if self._joining and connects:
                # The sender is no further along than we are: the suffix
                # we would miss by starting at our own round is empty,
                # so the join completes in place.
                self._complete_join()
            self._progress.notify()

    def _adopt_queue(self, msg: StateMessage) -> None:
        """Replace the queue with the sender's (whole-queue form)."""
        self.k = msg.k + 1
        self.agreed = AgreedQueue.from_plain(msg.agreed_plain,
                                             self.order_rule)
        # Nothing durable holds the adopted queue, and the segments on
        # disk no longer lead to it: the next tick writes a base.  A
        # crash before then recovers the old chain, which is still a
        # consistent (shorter) prefix.
        self._base_bytes = 0
        # Listeners are live (we are up): reset and replay the queue.
        self._pending_restore = True
        self._announce_restore()
        # Unordered ← Unordered − Agreed
        self._drop_unordered([mid for mid in self.unordered
                              if self.unordered[mid] in self.agreed])

    def _complete_join(self) -> None:
        """Seal a join: checkpoint the adopted state, clear the flag.

        The base record pins the recovery point at the transfer: if the
        fresh member crashes before its first periodic checkpoint, it
        recovers at the adopted round instead of re-joining from round 0
        (whose consensus logs may already be truncated cluster-wide).
        """
        assert self.node is not None
        self._write_base()
        self.node.storage.log(self.JOINING_KEY, False)
        self.consensus.set_instance_floor(self.ckpt_k)
        self._joining = False
        self.node.sim.trace("state-transfer", self.node.node_id,
                            "join-complete", k=self.k)
        self._progress.notify()
