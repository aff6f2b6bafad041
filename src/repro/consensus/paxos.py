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
  one record, once, on ``Accept`` (next bullet but one).  A
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
* **An ``Accept`` names by id what its recipient holds.**  Per member,
  the layer above's ``thin`` hook replaces each part of the value the
  member is known to hold with its id, and members with equal forms
  share one ``Accept``.  The acceptor's ``fill`` rebuilds the full value
  before it promises or logs; one that lacks a part stays silent until
  a re-send, which always carries the full form, or the decision
  reaches it.  Nothing else ever holds a thinned value: records,
  promises, decisions and proposals hold the full one.
* **Leadership comes from Ω** (:class:`~repro.fdetect.omega.OmegaOracle`).
  Once the underlying failure detector stabilises, a single good leader
  runs phase 1 / phase 2 to completion and sends ``DECIDE`` to the
  other processes — once, when it records the decision.  Phase 1 needs
  no value, so the leader binds (and logs) its own proposal only after
  it, and a follower that never runs an attempt logs none.  What the
  layer above wants bound rides the ``Promise`` (the endpoint's rider),
  so it reaches the leader before the bind.
* **Nothing is addressed to self.**  The paper's ``multisend`` includes
  the sender; here the proposer's own acceptor answers its ``Prepare``
  and ``Accept`` in-process, in the same turn, and every message goes
  to the *other* processes only.  A phase whose quorum needs no peer
  still waits for its first poll, which is the batching window.
* **The next Prepare rides the Decide.**  The Ω leader sends
  ``Decide(k)`` once the layer above has taken the decision; if that
  layer has entered ``k + 1`` by then (it had more to order), the
  ``Decide`` carries ``prepare_next`` — it is also ``Prepare(k + 1)``
  at the same ballot, which the own acceptor has promised — and the
  driver of ``k + 1`` finds phase 1 open.  A receiver handles the
  decision and then the ``Prepare``.  A standalone ``Prepare`` serves
  the first instance after a leader change, a round that opens after
  an idle spell, and the re-sends.
* **One write per acceptor per instance: the commit point.**  The
  record is ``(ballot, value, commit)``: each ``Accept`` carries the
  leader's commit point at its ballot, the highest ``c`` such that
  every instance ≤ ``c`` it sent at that ballot was decided there by a
  quorum.  After a restart, a record that a later record of the same
  ballot covers holds the decided value; nothing else is proved.  The
  leader's proposal *is* its own record, and decisions are locked in
  memory only: the one ``DECIDE`` names the ballot, and a receiver
  takes the value it accepted there (or later), parking the reference
  while that ``Accept`` is in flight (channels are not FIFO).
* **Decisions are locked and handed out on demand.**  Any process that
  receives *any* message for an instance it knows is decided replies with
  a ``DECIDE`` carrying the full value, so recovering processes (and the
  replay procedure of the Atomic Broadcast layer) always converge on the
  locked result (P5).  A process whose ``DECIDE`` or ``Accept`` was lost
  asks a peer it knows to be ahead
  (:meth:`PaxosConsensus.pull_decision`, driven by the gossip tick).

Every acceptor and proposer record goes to stable storage; the
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
from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage

__all__ = [
    "PaxosConsensus",
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


class Prepare(WireMessage):
    """Phase-1a: leader asks acceptors to promise ballot ``ballot``."""

    type = "paxos.prepare"
    type_id = 7
    fields = ("k", "ballot")

    def __init__(self, k: int, ballot: int):
        self.k = k
        self.ballot = ballot


class Promise(WireMessage):
    """Phase-1b: acceptor promises; reports last accepted (ballot, value)."""

    type = "paxos.promise"
    type_id = 8
    fields = ("k", "ballot", "accepted_ballot", "accepted_value")
    precedes_bind = True    # the leader binds once the promises are in

    def __init__(self, k: int, ballot: int, accepted_ballot: int,
                 accepted_value: Any):
        self.k = k
        self.ballot = ballot
        self.accepted_ballot = accepted_ballot
        self.accepted_value = accepted_value


class Accept(WireMessage):
    """Phase-2a: leader asks acceptors to accept ``value`` at ``ballot``;
    ``commit`` is its commit point at ``ballot`` (-1: none yet).  The
    ``value`` may name by id what the recipient holds (``thin``)."""

    type = "paxos.accept"
    type_id = 9
    fields = ("k", "ballot", "value", "commit")

    def __init__(self, k: int, ballot: int, value: Any, commit: int = -1):
        self.k = k
        self.ballot = ballot
        self.value = value
        self.commit = commit


class Accepted(WireMessage):
    """Phase-2b: acceptor accepted ``ballot``."""

    type = "paxos.accepted"
    type_id = 10
    fields = ("k", "ballot")

    def __init__(self, k: int, ballot: int):
        self.k = k
        self.ballot = ballot


class Decide(WireMessage):
    """Decision dissemination, in one of two forms.

    *By reference* (``value is None``): the decider's send to the other
    processes — "``k`` decided what ``ballot``'s ``Accept`` carried";
    with ``prepare_next`` it is also ``Prepare(k + 1, ballot)``.  *By
    value* (``ballot == -1``): the reply to a ``Query`` or to stale
    traffic, for a process that cannot be assumed to hold that
    ``Accept``.
    """

    type = "paxos.decide"
    type_id = 11
    fields = ("k", "ballot", "value", "prepare_next")

    def __init__(self, k: int, ballot: int, value: Any = None,
                 prepare_next: bool = False):
        self.k = k
        self.ballot = ballot
        self.value = value
        self.prepare_next = prepare_next


class Nack(WireMessage):
    """Rejection: the acceptor has promised a higher ballot."""

    type = "paxos.nack"
    type_id = 12
    fields = ("k", "promised")

    def __init__(self, k: int, promised: int):
        self.k = k
        self.promised = promised


class Query(WireMessage):
    """Decision pull: "do you know the outcome of instance k?"

    Unicast to a peer known to be ahead (``pull_decision``), and sent to
    every other process by undecided non-leaders after a silence
    timeout, so that a lost
    ``Decide`` — or the ``Accept`` its reference points at — is
    eventually recovered over the fair-loss channel.
    """

    type = "paxos.query"
    type_id = 13
    fields = ("k",)

    def __init__(self, k: int):
        self.k = k


class _Attempt:
    """Volatile per-ballot tally kept by the leader of an attempt."""

    __slots__ = ("ballot", "promises", "accepts", "value", "nacked",
                 "binding")

    def __init__(self, ballot: int):
        self.ballot = ballot
        self.promises: Dict[int, Tuple[int, Any]] = {}
        self.accepts: Set[int] = set()
        self.value: Any = None
        self.nacked = -1    # highest promise a Nack reported, if any
        self.binding = False  # phase 2 is binding this process's proposal


class PaxosConsensus(ConsensusService):
    """Ballot-based consensus for the crash-recovery model.

    Stable-storage layout (per node, beside the base class's)::

        paxos/promised        — highest ballot promised, all instances
        paxos/epoch           — this proposer's incarnation count
        paxos/<k>/acceptor    — (ballot, value, commit) accepted for k;
                                its proposal to k, at its own ballot

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
        # The leader's commit point at the highest ballot it sent an
        # Accept at: instances sent there but not decided there by a
        # quorum, and the highest one that was.
        self._commit_ballot = -1
        self._undecided: Set[int] = set()
        self._decided_top = -1
        self._last_record: Optional[int] = None  # highest_logged_instance
        # Member-set snapshot per driven instance.  A proposer only ever
        # starts instance k after delivering the prefix through k-1, so
        # its installed view at activation is the *same* view every
        # other proposer of k uses — freezing it here keeps quorums of
        # one instance mutually intersecting even while later view
        # installs reshape ``endpoint.peers()`` under an in-flight
        # attempt (two live views can be epochs apart and their
        # majorities disjoint).  Volatile: a recovering proposer's view
        # is again the view of its delivered prefix, so re-snapshotting
        # reproduces the same set.  Kept, with k's attempt, only while
        # k is in flight: once k is decided and its driver has ended,
        # both go (the Decide's addressees were taken at the decision).
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

    # -- acceptor/proposer records ---------------------------------------------------

    def _store(self, key: Tuple[Any, ...], value: Any) -> None:
        assert self.node is not None
        self.node.storage.log(key, value)

    def _load(self, key: Tuple[Any, ...], default: Any = None) -> Any:
        assert self.node is not None
        return self.node.storage.retrieve(key, default)

    # -- ConsensusService overrides -------------------------------------------------

    def _decision_on_record(self, k: int) -> Optional[Any]:
        """``k``'s decision, if this acceptor's records prove it: ``k``'s
        record has ballot ``b``, and a later record of ballot ``b`` —
        the scan skips instances it holds no record of — carries a
        commit point ≥ ``k``.  A quarantined record proves nothing."""
        ballot, value, _ = self._accepted_state(k)
        if ballot < 0:
            return None
        for later in range(k + 1, self.highest_logged_instance() + 1):
            later_ballot, _, commit = self._accepted_state(later)
            if later_ballot not in (-1, ballot):
                return None
            if later_ballot == ballot and commit >= k:
                return value
        return None

    def highest_logged_instance(self) -> int:
        if self._last_record is None:
            assert self.node is not None
            self._last_record = max(
                (int(key.split("/")[1])
                 for key in self.node.storage.keys(self.ACCEPTOR_KEY)
                 if key.count("/") == 2), default=-1)
        return self._last_record

    def proposal_of(self, k: int) -> Optional[Any]:
        """Bound in phase 2, a proposal is this acceptor's record at a
        ballot the process minted itself (its id is the low field)."""
        proposal = super().proposal_of(k)
        if proposal is None:
            ballot, value, _ = self._accepted_state(k)
            assert self.node is not None
            if ballot >= 0 \
                    and ballot & ((1 << _ID_BITS) - 1) == self.node.node_id:
                return value
        return proposal

    def logged_instances(self) -> Dict[int, Any]:
        found = super().logged_instances()
        for k in range(self.highest_logged_instance() + 1):
            proposal = self.proposal_of(k)
            if proposal is not None:
                found[k] = proposal
        return found

    def _log_proposal(self, k: int, value: Any) -> None:
        """Bound in phase 2 while this acceptor has promised just the
        attempt's ballot, the proposal is logged as its acceptor record
        there: one write for both."""
        attempt = self._attempts.get(k)
        if attempt is not None and attempt.binding \
                and self._promised_ballot() == attempt.ballot:
            self._accept(k, attempt.ballot, value, self._commit_point())
        else:
            self._store((self.PROPOSAL_KEY, k, "proposal"), value)
            self._proposals[k] = value

    def _record_decision(self, k: int, value: Any) -> None:
        self._parked.pop(k, None)
        super()._record_decision(k, value)
        if k not in self._drivers:
            self._forget_instance(k)

    def _forget_instance(self, k: int) -> None:
        """Drop what ``k`` needed while in flight; it is decided, and no
        driver of it runs."""
        self._attempts.pop(k, None)
        self._instance_members.pop(k, None)

    def discard_instances_below(self, k: int) -> int:
        """GC proposal logs *and* acceptor records below ``k``.

        Safe only below the global watermark (every process's durable
        checkpoint has passed ``k``): no process will ever run or replay
        those instances again, so forgetting their accepted values cannot
        lead to a conflicting re-decision.
        """
        discarded = super().discard_instances_below(k)
        assert self.node is not None
        for key in list(self.node.storage.keys(self.ACCEPTOR_KEY)):
            parts = key.split("/")
            if len(parts) == 3 and int(parts[1]) < k:
                self.node.storage.delete(key)
                discarded += 1
        for cache in (self._accepted, self._parked, self._instance_members,
                      self._attempts):
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
        ``Nack`` the sender with the higher ballot already promised —
        in-process when the sender is this process's own proposer."""
        promised = self._promised_ballot()
        if ballot < promised:
            nack = Nack(k, promised)
            if sender == self.endpoint.node_id:
                self._on_nack(nack, sender)
            else:
                self.endpoint.send(sender, nack)
            return False
        if ballot > promised:
            self._promised = ballot
            self._store((self.ACCEPTOR_KEY, "promised"), ballot)
        return True

    def _accepted_state(self, k: int) -> Tuple[int, Any, int]:
        """(accepted_ballot, accepted_value, commit) of instance ``k``;
        durable."""
        state = self._accepted.get(k)
        if state is None:
            state = self._load((self.ACCEPTOR_KEY, k, "acceptor"),
                               (-1, None, -1))
            state = (int(state[0]), state[1], int(state[2]))
            self._accepted[k] = state
        return state

    def _accept(self, k: int, ballot: int, value: Any, commit: int) -> None:
        """Log and cache the acceptor's one record of ``k``."""
        record = self._accepted[k] = (ballot, value, commit)
        self._last_record = max(self.highest_logged_instance(), k)
        self._store((self.ACCEPTOR_KEY, k, "acceptor"), record)

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

    # The proposer's own acceptor is handed its Prepare and Accept
    # in-process (``sender`` is this process); it answers the same way.

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
            accepted_ballot, accepted_value, _ = self._accepted_state(msg.k)
            promise = Promise(msg.k, msg.ballot, accepted_ballot,
                              accepted_value)
            if sender == self.endpoint.node_id:
                self._on_promise(promise, sender)
                return
            self.endpoint.send(sender, promise)

    def _on_accept(self, msg: Accept, sender: int) -> None:
        if self._reply_decided(msg.k, sender):
            return
        if msg.k < self.instance_floor and self._view_changed():
            return  # records gone: no participation (see _on_prepare)
        # A re-sent or duplicated Accept, or this process's own after it
        # bound its proposal, finds its record right — one (k, ballot)
        # carries one value — and is answered again with nothing logged,
        # also after a crash.
        fresh = self._accepted_state(msg.k)[0] != msg.ballot
        if fresh:
            # What the leader named by id is rebuilt first; an acceptor
            # that lacks some of it stays silent, neither promising nor
            # accepting, until the full form comes (a re-send) or the
            # decision does.
            value = self.fill(msg.value)
            if value is None \
                    or not self._admit_ballot(msg.k, msg.ballot, sender):
                return
            self._accept(msg.k, msg.ballot, value, msg.commit)
        accepted = Accepted(msg.k, msg.ballot)
        if sender == self.endpoint.node_id:
            self._on_accepted(accepted, sender)
        else:
            self.endpoint.send(sender, accepted)
        parked = self._parked.get(msg.k)
        if fresh and parked is not None:
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
            # Nothing is logged: the next Accept's commit point covers it.
            if attempt.ballot == self._commit_ballot:
                self._undecided.discard(msg.k)
                self._decided_top = max(self._decided_top, msg.k)
            # To k's own members: a reconfiguration decided in k may have
            # dropped one from the view, and it still needs the decision.
            members = self._others(self._members(msg.k))
            self._record_decision(msg.k, attempt.value)
            assert self.node is not None
            self.node.spawn(self._announce(msg.k, attempt.ballot, members),
                            "paxos-decide")

    def _announce(self, k: int, ballot: int, members: Tuple[int, ...]):
        """Send ``Decide(k, ballot)`` to ``members``, as a task: its
        first step runs after the tasks the decision woke, so the layer
        above has delivered ``k`` and, with more to order, entered
        ``k + 1`` — and then the ``Decide`` opens its phase 1 too."""
        decide = Decide(k, ballot, None, self._open_next(k + 1, ballot))
        for member in members:
            self.endpoint.send(member, decide)
        yield from ()

    def _open_next(self, k: int, ballot: int) -> bool:
        """Open phase 1 of ``k`` at ``ballot`` — the own acceptor
        promises now, the others on the ``Decide`` that says so — if
        this process is Ω's leader, still runs at ``ballot``, and has
        entered ``k`` (so its members are pinned) but holds no attempt
        for it.  A leader with nothing more to order has not entered
        ``k``: its round opens later, with a ``Prepare`` of its own,
        whose ``Promise``s carry the followers' pushes."""
        if not self.omega.is_leader() or ballot != self._ballot \
                or k not in self._drivers or k in self._attempts \
                or self.decided_value(k) is not None:
            return False
        self._attempts[k] = _Attempt(ballot)
        self._on_prepare(Prepare(k, ballot), self.endpoint.node_id)
        return True

    def _on_nack(self, msg: Nack, sender: int) -> None:
        attempt = self._attempts.get(msg.k)
        if attempt is not None and msg.promised > attempt.ballot:
            attempt.nacked = max(attempt.nacked, msg.promised)

    # -- learning -------------------------------------------------------------------------

    def _decide_by_reference(self, k: int, ballot: int) -> bool:
        """Lock ``k`` on what ``ballot`` chose, if this acceptor holds it:
        a record accepted at ``ballot`` *or later*, since every ballot
        after a choice proposes the chosen value.  A record from before
        ``ballot`` may hold a value that was never chosen."""
        accepted_ballot, value, _ = self._accepted_state(k)
        if accepted_ballot < ballot:
            return False
        self._record_decision(k, value)
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
        if msg.prepare_next:
            assert self.node is not None
            self.node.spawn(self._prepare_after_decision(
                Prepare(msg.k + 1, msg.ballot), sender), "paxos-prepare")

    def _prepare_after_decision(self, prepare: Prepare, sender: int):
        """The ``Prepare`` a ``Decide`` carried, handled as a task: its
        first step runs after the tasks the decision woke, so the layer
        above has taken the decided batch out of what it pushes beside
        the ``Promise``."""
        self._on_prepare(prepare, sender)
        yield from ()

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

    def _others(self, members: Collection[int]) -> Tuple[int, ...]:
        """``members`` without this process: whom a phase message goes to."""
        me = self.endpoint.node_id
        return tuple(member for member in members if member != me)

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

    def _commit_point(self) -> int:
        """The highest ``c`` such that every instance ≤ ``c`` this leader
        sent at the tracked ballot was decided there by a quorum.  An
        instance learnt decided otherwise stays undecided here: it stops
        ``c`` below it for good."""
        if self._undecided:
            return min(self._decided_top, min(self._undecided) - 1)
        return self._decided_top

    def _may_send_accept(self, k: int, ballot: int) -> bool:
        """Whether an ``Accept`` for ``k`` may go at ``ballot``: not under
        a commit point sent there, nor at a ballot older than the
        tracked one.  A later ballot starts a fresh commit point."""
        if ballot > self._commit_ballot:
            self._commit_ballot = ballot
            self._undecided = set()
            self._decided_top = -1
        return ballot == self._commit_ballot and k > self._commit_point()

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
        # Below the floor the instance's records are gone here and at
        # the peers that GC'd it: nobody can answer a Query, and an
        # attempt would only raise promises over the leader's ballot.
        while self.decided_value(k) is None and k >= self.instance_floor:
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
                    query = Query(k)
                    for member in self._others(self.endpoint.peers()):
                        self.endpoint.send(member, query)
        self._drivers.discard(k)
        if k in self._decisions:
            self._forget_instance(k)

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
        ``k`` — so no ``Accept`` goes and the driver stops.  Nor does one
        go under a commit point already sent at the ballot: the attempt
        spends the ballot instead.

        Phase 1 may be open already at the current ballot, opened by
        the ``Decide`` of ``k - 1`` (:meth:`_open_next`); then no
        ``Prepare`` goes, and a member that was not asked gets the first
        re-send.
        """
        ballot = self._current_ballot()
        me = self.endpoint.node_id
        prepare = Prepare(k, ballot)
        attempt = self._attempts.get(k)
        if attempt is None or attempt.ballot != ballot:
            attempt = _Attempt(ballot)
            self._attempts[k] = attempt
            for member in self._others(self._members(k)):
                self.endpoint.send(member, prepare)
            self._on_prepare(prepare, me)
        yield from self._await_quorum(k, attempt, attempt.promises, prepare)
        if self.decided_value(k) is not None:
            return True
        if len(attempt.promises) >= self._quorum(k) \
                and self._may_send_accept(k, attempt.ballot):
            # Choose the value: highest accepted ballot wins, else my
            # proposal — bound here, the first moment one is needed.
            best_ballot, best_value = -1, None
            for accepted_ballot, accepted_value in attempt.promises.values():
                if accepted_ballot > best_ballot:
                    best_ballot, best_value = accepted_ballot, accepted_value
            if best_ballot >= 0 and best_value is not None:
                attempt.value = best_value
            else:
                attempt.binding = True
                attempt.value = self._bound_value(k)
                attempt.binding = False
                if attempt.value is None:
                    return False
        if attempt.value is not None:
            self._undecided.add(k)
            # The full form is the own acceptor's and every re-send's,
            # one object for the phase: a re-send reuses its encoding.
            accept = Accept(k, attempt.ballot, attempt.value,
                            self._commit_point())
            self._send_accept(accept)
            self._on_accept(accept, me)
            yield from self._await_quorum(k, attempt, attempt.accepts,
                                          accept)
        # Decision (if reached) was recorded by _on_accepted; otherwise
        # the driver loop retries, at a ballot this instance has not used.
        if self.decided_value(k) is None:
            self._retire(attempt)
        return True

    def _send_accept(self, accept: Accept) -> None:
        """Send ``accept`` to its instance's other members, each in the
        form :attr:`thin` gives it: what the member is known to hold
        goes as an id.  Members whose forms are equal share one
        ``Accept``, so it is sized and encoded once."""
        forms = {accept.value: accept}
        for member in self._others(self._members(accept.k)):
            value = self.thin(member, accept.value)
            message = forms.get(value)
            if message is None:
                message = forms[value] = Accept(
                    accept.k, accept.ballot, value, accept.commit)
            self.endpoint.send(member, message)

    def _await_quorum(self, k: int, attempt: _Attempt,
                      answered: Collection[int], message: WireMessage):
        """Wait for a quorum of ``answered``, a ``Nack``, a decision or
        ``attempt_timeout``; every quarter of the timeout, re-send the
        phase's ``message`` to the members that have not answered.

        The first poll is always waited out, also when the own acceptor
        alone is a quorum: it is the window in which the batch fills."""
        assert self.node is not None
        sim = self.node.sim
        quorum = self._quorum(k)
        resend_period = self.attempt_timeout / 4
        deadline = sim.now + self.attempt_timeout
        resend_at = sim.now + resend_period
        while True:
            yield min(0.05, resend_period)
            if (len(answered) >= quorum or attempt.nacked >= 0
                    or sim.now >= deadline
                    or self.decided_value(k) is not None):
                return
            if sim.now >= resend_at:
                for member in self._others(self._members(k)):
                    if member not in answered:
                        self.endpoint.send(member, message)
                        self.resends += 1
                resend_at = sim.now + resend_period
