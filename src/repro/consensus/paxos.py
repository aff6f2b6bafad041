"""Consensus for the crash-recovery model (Paxos/Synod engine).

This is the "black box" the Atomic Broadcast protocol of the paper plugs
into — the role played by the protocols of Aguilera-Chen-Toueg [1],
Hurfin-Mostefaoui-Raynal [11] and Oliveira-Guerraoui-Schiper [14].  We
implement it as a ballot-based Synod engine because its correctness story
under crash-recovery is the best understood:

* **Acceptor state is durable, and only what changed is logged.**  One
  ``promised`` ballot covers every instance — strictly more conservative
  than a promise per instance — and is logged only when a ``Prepare`` or
  ``Accept`` carries a *higher* ballot; per instance an acceptor logs
  ``(accepted_ballot, accepted_value)``, once, on ``Accept``.  A
  crash-and-recover acceptor can never un-promise or forget an accepted
  value — this is what makes Uniform Agreement hold across recoveries.
* **Ballots are unique by construction.**  A ballot packs ``(sequence,
  epoch, node id)`` into fixed-width fields (:func:`make_ballot`).  The
  epoch is durable and bumped once per incarnation, before the
  incarnation's first ``Prepare``, so a recovered proposer never reuses
  a ballot; the sequence is volatile.  One ballot serves the first
  attempt of every instance until an attempt retires it — a whole
  ``attempt_timeout`` without a quorum, or a ``Nack`` reporting a higher
  promise — and then the proposer jumps above it in one step.  A lost
  ``Prepare``/``Accept`` or its reply does not cost the ballot: every
  quarter of ``attempt_timeout`` the leader re-sends the phase's
  message, at the same ballot, to the members that have not answered,
  and an acceptor answers a repeated ``Accept`` without logging again.
* **Leadership comes from Ω** (:class:`~repro.fdetect.omega.OmegaOracle`).
  Once the underlying failure detector stabilises, a single good leader
  runs phase 1 / phase 2 to completion and multisends ``DECIDE`` — once,
  when it records the decision.  Phase 1 needs no value, so the leader
  binds (and logs) its own proposal only after it, and a follower that
  never runs an attempt logs none.
* **Decisions travel and are logged by reference.**  The decider's one
  ``DECIDE`` names the ballot the value was chosen at, not the value:
  every acceptor already holds (and logged) it from that ballot's
  ``Accept``.  A process whose acceptor record for the instance is at
  that ballot *or later* — a later ballot can only carry the chosen
  value — locks the decision as a :class:`DecisionRef` marker resolved
  through that record; one whose ``Accept`` is still in flight (channels
  are not FIFO) parks the reference until it lands.
* **Decisions are locked and handed out on demand.**  Any process that
  receives *any* message for an instance it knows is decided replies with
  a ``DECIDE`` carrying the full value, so recovering processes (and the
  replay procedure of the Atomic Broadcast layer) always converge on the
  locked result (P5).  A process whose ``DECIDE`` or ``Accept`` was lost
  asks a peer it knows to be ahead
  (:meth:`PaxosConsensus.pull_decision`, driven by the gossip tick).

Every acceptor, proposer and decision record goes to stable storage; the
crash-**stop** baseline, which logs nothing, is a different algorithm
(:mod:`repro.consensus.chandra_toueg`), not a mode of this one.

Liveness requires a majority of good processes, the standard assumption
of the consensus substrate papers.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, Optional, Set, Tuple

from repro.consensus.base import ConsensusService
from repro.errors import ConsensusError
from repro.fdetect.omega import OmegaOracle
from repro.runtime import AnyOf
from repro.sizing import estimate_size
from repro.storage import codec
from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage

__all__ = [
    "PaxosConsensus",
    "DecisionRef",
    "make_ballot",
    "Prepare",
    "Promise",
    "Accept",
    "Accepted",
    "Decide",
    "Nack",
]

# Ballot layout, most significant first: | sequence | epoch | node id |.
# The two low fields are fixed-width, so (epoch, node id) — one proposer
# incarnation — is read straight off the integer and no two incarnations
# can ever mint the same ballot, whatever member set either believes in.
# The sequence is unbounded above: jumping over any ballot is one step.
_ID_BITS = 16
_EPOCH_BITS = 24
_SEQ_SHIFT = _ID_BITS + _EPOCH_BITS


def make_ballot(sequence: int, epoch: int, node_id: int) -> int:
    """Pack one ballot; raises rather than let a field spill into the next."""
    if not (0 <= epoch < 1 << _EPOCH_BITS and 0 <= node_id < 1 << _ID_BITS):
        raise ConsensusError(
            f"ballot field out of range: epoch {epoch}, node id {node_id}")
    return (sequence << _SEQ_SHIFT) | (epoch << _ID_BITS) | node_id


class DecisionRef:
    """The durable form of a decision taken by reference.

    Logged under ``consensus/<k>/decision`` in place of the value: "the
    decision of ``k`` is what my acceptor record of ``k`` holds, chosen
    at ``ballot``".  Reserved — it is not a proposable value — and
    registered with the storage codec so it survives a real disk.
    """

    __slots__ = ("ballot",)

    def __init__(self, ballot: int):
        self.ballot = int(ballot)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DecisionRef) and self.ballot == other.ballot

    def estimated_size(self) -> int:
        return 2 + estimate_size(self.ballot)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DecisionRef({self.ballot})"


codec.register(DecisionRef, "paxos.decision-ref",
               lambda ref: ref.ballot, DecisionRef)


class Prepare(WireMessage):
    """Phase-1a: leader asks acceptors to promise ballot ``ballot``."""

    type = "paxos.prepare"
    fields = ("k", "ballot")

    def __init__(self, k: int, ballot: int):
        self.k = k
        self.ballot = ballot


class Promise(WireMessage):
    """Phase-1b: acceptor promises; reports last accepted (ballot, value)."""

    type = "paxos.promise"
    fields = ("k", "ballot", "accepted_ballot", "accepted_value")

    def __init__(self, k: int, ballot: int, accepted_ballot: int,
                 accepted_value: Any):
        self.k = k
        self.ballot = ballot
        self.accepted_ballot = accepted_ballot
        self.accepted_value = accepted_value


class Accept(WireMessage):
    """Phase-2a: leader asks acceptors to accept ``value`` at ``ballot``."""

    type = "paxos.accept"
    fields = ("k", "ballot", "value")

    def __init__(self, k: int, ballot: int, value: Any):
        self.k = k
        self.ballot = ballot
        self.value = value


class Accepted(WireMessage):
    """Phase-2b: acceptor accepted ``ballot``."""

    type = "paxos.accepted"
    fields = ("k", "ballot")

    def __init__(self, k: int, ballot: int):
        self.k = k
        self.ballot = ballot


class Decide(WireMessage):
    """Decision dissemination, in one of two forms.

    *By reference* (``value is None``): the decider's multisend — "``k``
    decided what ``ballot``'s ``Accept`` carried".  *By value*
    (``ballot == -1``): the reply to a ``Query`` or to stale traffic,
    for a process that cannot be assumed to hold that ``Accept``.
    """

    type = "paxos.decide"
    fields = ("k", "ballot", "value")

    def __init__(self, k: int, ballot: int, value: Any = None):
        self.k = k
        self.ballot = ballot
        self.value = value


class Nack(WireMessage):
    """Rejection: the acceptor has promised a higher ballot."""

    type = "paxos.nack"
    fields = ("k", "promised")

    def __init__(self, k: int, promised: int):
        self.k = k
        self.promised = promised


class Query(WireMessage):
    """Decision pull: "do you know the outcome of instance k?"

    Unicast to a peer known to be ahead (``pull_decision``), and multisent
    by undecided non-leaders after a silence timeout, so that a lost
    ``Decide`` — or the ``Accept`` its reference points at — is
    eventually recovered over the fair-loss channel.
    """

    type = "paxos.query"
    fields = ("k",)

    def __init__(self, k: int):
        self.k = k


class _Attempt:
    """Volatile per-ballot tally kept by the leader of an attempt."""

    __slots__ = ("ballot", "promises", "accepts", "value", "nacked")

    def __init__(self, ballot: int):
        self.ballot = ballot
        self.promises: Dict[int, Tuple[int, Any]] = {}
        self.accepts: Set[int] = set()
        self.value: Any = None
        self.nacked = -1    # highest promise a Nack reported, if any


class PaxosConsensus(ConsensusService):
    """Ballot-based consensus for the crash-recovery model.

    Stable-storage layout (per node, beside the base class's)::

        paxos/promised        — highest ballot promised, all instances
        paxos/epoch           — this proposer's incarnation count
        paxos/<k>/acceptor    — (accepted_ballot, accepted_value) of k

    Parameters
    ----------
    endpoint:
        Transport endpoint of the owning node.
    omega:
        Ω leader oracle (drives who runs attempts).
    attempt_timeout:
        How long a leader waits for a quorum before retrying with a higher
        ballot; every quarter of it, the phase's message is re-sent to
        the members that have not answered.
    """

    name = "paxos"

    ACCEPTOR_KEY = "paxos"

    # Volatile mirrors of durable acceptor/proposer state, patrolled by
    # the WAL003 lint: mutations must reach stable storage before any
    # dependent send (an acceptor that answers before logging can
    # un-promise on recovery; a proposer that sends before logging its
    # epoch can reuse a ballot).
    VOLATILE_FIELDS = ("_promised", "_accepted", "_epoch")

    def __init__(self, endpoint: Endpoint, omega: OmegaOracle,
                 attempt_timeout: float = 1.0, namespace: str = ""):
        super().__init__(namespace)
        if namespace:
            self.ACCEPTOR_KEY = f"paxos@{namespace}"
        self.endpoint = endpoint
        self.omega = omega
        self.attempt_timeout = attempt_timeout
        # Run statistics over the component's life (a crash keeps them):
        # phase messages re-sent inside a ballot, and attempts that
        # spent their ballot on a timeout or a Nack.
        self.resends = 0
        self.ballots_retired = 0
        self._forget_volatile_state()

    def _forget_volatile_state(self) -> None:
        """Everything a crash loses; recovery reloads it lazily."""
        self._promised: Optional[int] = None
        self._accepted: Dict[int, Tuple[int, Any]] = {}
        self._epoch: Optional[int] = None
        # The ballot attempts currently run at (None until this
        # incarnation's first attempt logs its epoch).
        self._ballot: Optional[int] = None
        self._attempts: Dict[int, _Attempt] = {}
        self._drivers: Set[int] = set()
        # Decide references whose Accept has not arrived: k -> ballot.
        self._parked: Dict[int, int] = {}
        # Member-set snapshot per driven instance.  A proposer only ever
        # starts instance k after delivering the prefix through k-1, so
        # its installed view at activation is the *same* view every
        # other proposer of k uses — freezing it here keeps quorums of
        # one instance mutually intersecting even while later view
        # installs reshape ``endpoint.peers()`` under an in-flight
        # attempt (two live views can be epochs apart and their
        # majorities disjoint).  Volatile: a recovering proposer's view
        # is again the view of its delivered prefix, so re-snapshotting
        # reproduces the same set.
        self._instance_members: Dict[int, Tuple[int, ...]] = {}

    # -- lifecycle ------------------------------------------------------------

    def on_start(self) -> None:
        self._forget_volatile_state()
        self.endpoint.register(Prepare.type, self._on_prepare)
        self.endpoint.register(Promise.type, self._on_promise)
        self.endpoint.register(Accept.type, self._on_accept)
        self.endpoint.register(Accepted.type, self._on_accepted)
        self.endpoint.register(Decide.type, self._on_decide)
        self.endpoint.register(Nack.type, self._on_nack)
        self.endpoint.register(Query.type, self._on_query)

    def on_crash(self) -> None:
        super().on_crash()
        self._forget_volatile_state()

    # -- acceptor/proposer records (the names WAL003 knows as helpers) -----------

    def _store(self, key: Tuple[Any, ...], value: Any) -> None:
        assert self.node is not None
        self.node.storage.log(key, value)

    def _load(self, key: Tuple[Any, ...], default: Any = None) -> Any:
        assert self.node is not None
        return self.node.storage.retrieve(key, default)

    # -- ConsensusService overrides -------------------------------------------------

    def decided_value(self, k: int) -> Optional[Any]:
        decision = super().decided_value(k)
        if isinstance(decision, DecisionRef):
            # Logged by reference.  A record that is gone (quarantined
            # by the disk layer) leaves the instance reading as
            # undecided; it is re-learnt through ``Query`` and the
            # marker overwritten by value.
            return self._value_accepted_since(k, decision.ballot)
        return decision

    def _record_decision(self, k: int, value: Any,
                         record: Any = None) -> None:
        self._parked.pop(k, None)
        super()._record_decision(k, value, record)

    def discard_instances_below(self, k: int) -> int:
        """GC proposal/decision logs *and* acceptor state below ``k``.

        Safe only below the global watermark (every process's durable
        checkpoint has passed ``k``): no process will ever run or replay
        those instances again, so forgetting their accepted values cannot
        lead to a conflicting re-decision.  The base class deletes the
        decision records first: a :class:`DecisionRef` must never outlive
        the acceptor record it points at.
        """
        discarded = super().discard_instances_below(k)
        assert self.node is not None
        for key in list(self.node.storage.keys(self.ACCEPTOR_KEY)):
            parts = key.split("/")
            if len(parts) == 3 and int(parts[1]) < k:
                self.node.storage.delete(key)
        for cache in (self._accepted, self._parked, self._instance_members):
            for instance in [i for i in cache if i < k]:
                del cache[instance]
        return discarded

    # -- acceptor ------------------------------------------------------------------------

    def _promised_ballot(self) -> int:
        """The highest ballot promised, over all instances; durable."""
        if self._promised is None:
            self._promised = int(
                self._load((self.ACCEPTOR_KEY, "promised"), -1))
        return self._promised

    def _admit_ballot(self, k: int, ballot: int, sender: int) -> bool:
        """Promise ``ballot`` (logged only if it raises the promise), or
        ``Nack`` the sender with the higher ballot already promised."""
        promised = self._promised_ballot()
        if ballot < promised:
            self.endpoint.send(sender, Nack(k, promised))
            return False
        if ballot > promised:
            self._promised = ballot
            self._store((self.ACCEPTOR_KEY, "promised"), ballot)
        return True

    def _accepted_state(self, k: int) -> Tuple[int, Any]:
        """(accepted_ballot, accepted_value) of instance ``k``; durable."""
        state = self._accepted.get(k)
        if state is None:
            state = self._load((self.ACCEPTOR_KEY, k, "acceptor"),
                               (-1, None))
            state = (int(state[0]), state[1])
            self._accepted[k] = state
        return state

    def _value_accepted_since(self, k: int, ballot: int) -> Optional[Any]:
        """The value ``ballot`` chose for ``k``, if this acceptor holds it.

        Its record stands for that value when it was accepted at
        ``ballot`` — or at any later one, since every ballot after a
        choice proposes the chosen value.  A record from *before*
        ``ballot`` may hold a value that was never chosen.
        """
        accepted_ballot, accepted_value = self._accepted_state(k)
        return accepted_value if accepted_ballot >= ballot else None

    def _view_changed(self) -> bool:
        """True once the installed view has ever left epoch 0.

        The participation floor only needs *enforcing* after a
        reconfiguration: the GC watermark can pass a down process's
        checkpoint solely because an ordered removal dropped it from the
        member set, and that removal bumps the epoch (durably) before
        any such GC runs.  Under a static view, below-floor traffic is
        always a reordered straggler whose sender has already decided,
        and answering it — the pre-membership behaviour — is harmless.
        """
        source = getattr(self.endpoint, "view_source", None)
        return source is not None and source.epoch() > 0

    def _reply_decided(self, k: int, dst: int) -> bool:
        decision = self.decided_value(k)
        if decision is None:
            return False
        self.endpoint.send(dst, Decide(k, -1, decision))
        return True

    def _on_prepare(self, msg: Prepare, sender: int) -> None:
        if self._reply_decided(msg.k, sender):
            return
        if msg.k < self.instance_floor and self._view_changed():
            # This instance's records were garbage-collected here: a
            # fresh promise would let a stale recovering proposer
            # re-decide it.  Stay silent; the sender catches up by state
            # transfer instead (see ``_peer_behind``).  Enforced only
            # once the view has ever changed: under a static membership
            # the watermark never outruns a down peer's checkpoint, so a
            # below-floor ballot there is a harmless reordered straggler
            # whose proposer has long since decided.
            return
        if self._admit_ballot(msg.k, msg.ballot, sender):
            accepted_ballot, accepted_value = self._accepted_state(msg.k)
            self.endpoint.send(sender, Promise(
                msg.k, msg.ballot, accepted_ballot, accepted_value))

    def _on_accept(self, msg: Accept, sender: int) -> None:
        if self._reply_decided(msg.k, sender):
            return
        if msg.k < self.instance_floor and self._view_changed():
            return  # records gone: no participation (see _on_prepare)
        record = self._accepted.get(msg.k)
        if record is not None and record[0] == msg.ballot:
            # A re-sent or duplicated Accept: one (k, ballot) carries one
            # value, so the record is already right — answer again and
            # log nothing.
            self.endpoint.send(sender, Accepted(msg.k, msg.ballot))
            return
        if not self._admit_ballot(msg.k, msg.ballot, sender):
            return
        self._accepted[msg.k] = (msg.ballot, msg.value)
        self._store((self.ACCEPTOR_KEY, msg.k, "acceptor"),
                    (msg.ballot, msg.value))
        self.endpoint.send(sender, Accepted(msg.k, msg.ballot))
        parked = self._parked.get(msg.k)
        if parked is not None:
            self._decide_by_reference(msg.k, parked)  # Decide overtook us

    # -- leader tallies -------------------------------------------------------------------

    def _on_promise(self, msg: Promise, sender: int) -> None:
        attempt = self._attempts.get(msg.k)
        if attempt is None or attempt.ballot != msg.ballot:
            return
        if sender not in self._members(msg.k):
            return  # outside this instance's view: not quorum material
        attempt.promises[sender] = (msg.accepted_ballot, msg.accepted_value)

    def _on_accepted(self, msg: Accepted, sender: int) -> None:
        attempt = self._attempts.get(msg.k)
        if attempt is None or attempt.ballot != msg.ballot:
            return
        if sender not in self._members(msg.k):
            return  # quorums count the instance's pinned members only
        attempt.accepts.add(sender)
        if len(attempt.accepts) >= self._quorum(msg.k) \
                and self.decided_value(msg.k) is None:
            # Decide leaves exactly once, on the undecided -> decided
            # transition; a later or duplicated Accepted finds the
            # decision recorded.  A lost copy is pulled (pull_decision).
            # The decider's own acceptor normally holds the value too;
            # one that is outside the member set, or has promised
            # higher, does not — it logs the value itself.
            if not self._decide_by_reference(msg.k, attempt.ballot):
                self._record_decision(msg.k, attempt.value)
            self.endpoint.multisend(  # repro: noqa(WAL003) -- the decision is logged: _record_decision logs, then fills the _decisions cache, and the cache fill after the log is all the rule sees
                Decide(msg.k, attempt.ballot))

    def _on_nack(self, msg: Nack, sender: int) -> None:
        attempt = self._attempts.get(msg.k)
        if attempt is not None and msg.promised > attempt.ballot:
            attempt.nacked = max(attempt.nacked, msg.promised)

    # -- learning -------------------------------------------------------------------------

    def _decide_by_reference(self, k: int, ballot: int) -> bool:
        """Lock ``k`` on what ``ballot`` chose, if this acceptor holds it;
        the log gets a marker, not a second copy of the value."""
        value = self._value_accepted_since(k, ballot)
        if value is None:
            return False
        self._record_decision(k, value, DecisionRef(ballot))
        return True

    def _on_decide(self, msg: Decide, sender: int) -> None:
        if msg.value is not None:
            self._record_decision(msg.k, msg.value)
        elif self.decided_value(msg.k) is None \
                and not self._decide_by_reference(msg.k, msg.ballot):
            # The Accept is still in flight (or lost: then the Query
            # paths fetch the value).  Any chosen ballot names the same
            # value; the lowest is the one an Accept can satisfy first.
            self._parked[msg.k] = min(
                msg.ballot, self._parked.get(msg.k, msg.ballot))

    def _on_query(self, msg: Query, sender: int) -> None:
        self._reply_decided(msg.k, sender)

    def pull_decision(self, k: int, peer: int) -> None:
        if self.decided_value(k) is None:
            self.endpoint.send(peer, Query(k))

    def leader_hint(self) -> Optional[int]:
        """Ω's leader: while Ω is stable only it runs attempts, so a
        round decides its proposal (or a value an earlier attempt left
        accepted, which already travelled in that attempt's Accept)."""
        return self.omega.leader()

    # -- instance driver ----------------------------------------------------------------------

    def _members(self, k: int) -> Tuple[int, ...]:
        """The member set instance ``k`` runs under (pinned at activation)."""
        members = self._instance_members.get(k)
        if members is None:
            members = tuple(self.endpoint.peers())
        return members

    def _quorum(self, k: int) -> int:
        return len(self._members(k)) // 2 + 1

    def _current_ballot(self) -> int:
        """The ballot new attempts run at.

        The first call of an incarnation logs the bumped epoch — before
        any ``Prepare`` can carry it — and starts above everything this
        node's own acceptor has promised.
        """
        if self._ballot is None:
            epoch = int(self._load((self.ACCEPTOR_KEY, "epoch"), 0)) + 1
            self._store((self.ACCEPTOR_KEY, "epoch"), epoch)
            self._epoch = epoch
            self._ballot = self._ballot_above(self._promised_ballot())
        return self._ballot

    def _ballot_above(self, ballot: int) -> int:
        """This incarnation's lowest ballot greater than ``ballot``."""
        assert self.node is not None and self._epoch is not None
        return make_ballot((ballot >> _SEQ_SHIFT) + 1, self._epoch,
                           self.node.node_id)

    def _retire(self, attempt: _Attempt) -> None:
        """A failed attempt spends its ballot for its instance: move on,
        in one step, past it and past whatever promise a ``Nack``
        reported.  (Another instance's failure may already have.)"""
        assert self._ballot is not None
        self.ballots_retired += 1
        spent = max(attempt.ballot, attempt.nacked)
        if self._ballot <= spent:
            self._ballot = self._ballot_above(spent)

    def _activate(self, k: int) -> None:
        if k in self._drivers or self.decided_value(k) is not None:
            return
        assert self.node is not None
        if k not in self._instance_members:
            self._instance_members[k] = tuple(self.endpoint.peers())
        self._drivers.add(k)
        self.node.spawn(self._drive(k), f"paxos-{k}")

    def _drive(self, k: int):
        """Per-instance driver: run attempts while leader, else wait.

        A non-leader that stays undecided through several silent timeouts
        runs an attempt itself — Paxos stays safe under concurrent
        proposers, and this restores liveness when the nominal leader has
        no proposal for (or no memory of) the instance.
        """
        assert self.node is not None
        sim = self.node.sim
        silent_timeouts = 0
        while self.decided_value(k) is None and \
                (k >= self.instance_floor or not self._view_changed()):
            if self.omega.is_leader() or silent_timeouts >= 2:
                silent_timeouts = 0
                if not (yield from self._run_attempt(k)):
                    break   # nothing to propose: the layer above left k
            else:
                # Wait for leadership change or a decision, with a timeout;
                # on timeout, pull the (possibly lost) decision with a
                # Query so the fair-loss channel eventually delivers it.
                decision_wait = self.decision_signal(k).wait()
                omega_wait = self.omega.changed.wait()
                timer = sim.event(f"paxos-poll-{k}")
                handle = sim.schedule(self.attempt_timeout * 2, timer.fire)
                fired, _ = yield AnyOf([decision_wait, omega_wait, timer])
                handle.cancel()
                if fired is timer and self.decided_value(k) is None:
                    silent_timeouts += 1
                    self.endpoint.multisend(Query(k))
        self._drivers.discard(k)

    def _run_attempt(self, k: int):
        """One phase-1 + phase-2 attempt at the current ballot.

        Each phase waits for a quorum of the instance's members.  The
        channels are fair-lossy, so every quarter of ``attempt_timeout``
        without one, the phase's message goes again, at the same ballot,
        to each member that has not answered.  The ballot is retired
        only when a whole ``attempt_timeout`` passes or a ``Nack``
        reports a higher promise.

        Phase 1 needs no value, so this process's own proposal is bound
        after it, and only when no promise reports an accepted value:
        the batch keeps filling while the promises come in.  Returns
        ``False`` when there is none to bind — the layer above has left
        ``k`` — so no ``Accept`` goes and the driver stops.
        """
        attempt = _Attempt(self._current_ballot())
        self._attempts[k] = attempt
        prepare = Prepare(k, attempt.ballot)
        self.endpoint.multisend(prepare)
        yield from self._await_quorum(k, attempt, attempt.promises, prepare)
        if self.decided_value(k) is not None:
            return True
        if len(attempt.promises) >= self._quorum(k):
            # Choose the value: highest accepted ballot wins, else my
            # proposal — bound here, the first moment one is needed.
            best_ballot, best_value = -1, None
            for accepted_ballot, accepted_value in attempt.promises.values():
                if accepted_ballot > best_ballot:
                    best_ballot, best_value = accepted_ballot, accepted_value
            if best_ballot >= 0 and best_value is not None:
                attempt.value = best_value
            else:
                attempt.value = self._bound_value(k)
                if attempt.value is None:
                    return False
        if attempt.value is not None:
            # One object for the phase: a re-send reuses its encoding.
            accept = Accept(k, attempt.ballot, attempt.value)
            self.endpoint.multisend(accept)
            yield from self._await_quorum(k, attempt, attempt.accepts,
                                          accept)
        # Decision (if reached) was recorded by _on_accepted; otherwise
        # the driver loop retries, at a ballot this instance has not used.
        if self.decided_value(k) is None:
            self._retire(attempt)
        return True

    def _await_quorum(self, k: int, attempt: _Attempt,
                      answered: Collection[int], message: WireMessage):
        """Wait for a quorum of ``answered``, a ``Nack``, a decision or
        ``attempt_timeout``; every quarter of the timeout, re-send the
        phase's ``message`` to the members that have not answered."""
        assert self.node is not None
        sim = self.node.sim
        quorum = self._quorum(k)
        resend_period = self.attempt_timeout / 4
        deadline = sim.now + self.attempt_timeout
        resend_at = sim.now + resend_period
        while (len(answered) < quorum and attempt.nacked < 0
               and sim.now < deadline and self.decided_value(k) is None):
            if sim.now >= resend_at:
                for member in self._members(k):
                    if member not in answered:
                        self.endpoint.send(member, message)
                        self.resends += 1
                resend_at = sim.now + resend_period
            yield min(0.05, resend_period)
