"""Consensus for the crash-recovery model (Paxos/Synod engine).

This is the "black box" the Atomic Broadcast protocol of the paper plugs
into — the role played by the protocols of Aguilera-Chen-Toueg [1],
Hurfin-Mostefaoui-Raynal [11] and Oliveira-Guerraoui-Schiper [14].  We
implement it as a ballot-based Synod engine because its correctness story
under crash-recovery is the best understood:

* **Acceptor state is durable.**  Each acceptor logs
  ``(promised, accepted_ballot, accepted_value)`` before answering, so a
  crash-and-recover acceptor can never un-promise or forget an accepted
  value — this is what makes Uniform Agreement hold across recoveries.
* **Ballots are leader-disjoint.**  Ballot ``b`` belongs to process
  ``b mod n``; a leader picks fresh ballots by bumping a *durable*
  per-instance attempt counter, so recovered incarnations never reuse a
  ballot.
* **Leadership comes from Ω** (:class:`~repro.fdetect.omega.OmegaOracle`).
  Once the underlying failure detector stabilises, a single good leader
  runs phase 1 / phase 2 to completion and multisends ``DECIDE`` — once,
  when it records the decision.
* **Decisions are locked and gossiped on demand.**  Any process that
  receives *any* message for an instance it knows is decided replies with
  ``DECIDE``, so recovering processes (and the replay procedure of the
  Atomic Broadcast layer) always converge on the locked result (P5).  A
  process whose one ``DECIDE`` was lost asks a peer it knows to be ahead
  (:meth:`PaxosConsensus.pull_decision`, driven by the gossip tick).

Setting ``durable=False`` turns off every stable-storage write, which is
sound in the crash-**stop** model (state is never lost because crashed
processes never come back).  The crash-stop baseline uses this mode.

Liveness requires a majority of good processes, the standard assumption
of the consensus substrate papers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from repro.consensus.base import ConsensusService
from repro.fdetect.omega import OmegaOracle
from repro.runtime import AnyOf
from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage

__all__ = [
    "PaxosConsensus",
    "Prepare",
    "Promise",
    "Accept",
    "Accepted",
    "Decide",
    "Nack",
]


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
    """Decision dissemination (also sent in reply to stale traffic)."""

    type = "paxos.decide"
    fields = ("k", "value")

    def __init__(self, k: int, value: Any):
        self.k = k
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
    ``Decide`` is eventually recovered over the fair-loss channel.
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
        self.nacked = False


class PaxosConsensus(ConsensusService):
    """Ballot-based consensus; durable (crash-recovery) by default.

    Parameters
    ----------
    endpoint:
        Transport endpoint of the owning node.
    omega:
        Ω leader oracle (drives who runs attempts).
    durable:
        When ``True`` (crash-recovery model) acceptor state, proposals and
        decisions are logged; when ``False`` (crash-stop model) everything
        stays volatile.
    attempt_timeout:
        How long a leader waits for a quorum before retrying with a higher
        ballot.
    """

    name = "paxos"

    ACCEPTOR_KEY = "paxos"

    # Volatile mirrors of durable acceptor state, patrolled by the WAL001
    # lint: mutations must reach stable storage before any dependent send
    # (an acceptor that answers before logging can un-promise on recovery).
    VOLATILE_FIELDS = ("_acceptor", "_attempt_counter")

    def __init__(self, endpoint: Endpoint, omega: OmegaOracle,
                 durable: bool = True, attempt_timeout: float = 1.0,
                 namespace: str = ""):
        super().__init__(namespace)
        if namespace:
            self.ACCEPTOR_KEY = f"paxos@{namespace}"
        self.endpoint = endpoint
        self.omega = omega
        self.durable = durable
        self.attempt_timeout = attempt_timeout
        # Volatile state, rebuilt on recovery.
        self._acceptor: Dict[int, Tuple[int, int, Any]] = {}
        self._attempts: Dict[int, _Attempt] = {}
        self._drivers: Set[int] = set()
        self._attempt_counter: Dict[int, int] = {}
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
        self._shadow_storage: Dict[str, Any] = {}  # non-durable mode only

    # -- lifecycle ------------------------------------------------------------

    def on_start(self) -> None:
        self._acceptor = {}
        self._attempts = {}
        self._drivers = set()
        self._attempt_counter = {}
        self._instance_members = {}
        self.endpoint.register(Prepare.type, self._on_prepare)
        self.endpoint.register(Promise.type, self._on_promise)
        self.endpoint.register(Accept.type, self._on_accept)
        self.endpoint.register(Accepted.type, self._on_accepted)
        self.endpoint.register(Decide.type, self._on_decide)
        self.endpoint.register(Nack.type, self._on_nack)
        self.endpoint.register(Query.type, self._on_query)

    def on_crash(self) -> None:
        super().on_crash()
        self._acceptor = {}
        self._attempts = {}
        self._drivers = set()
        self._attempt_counter = {}
        self._instance_members = {}
        if not self.durable:
            # Crash-stop misuse guard: in the crash-stop model processes do
            # not come back, so volatile shadow storage is simply dropped.
            self._shadow_storage = {}

    # -- durable/volatile storage shim --------------------------------------------

    def _store(self, key: Tuple[Any, ...], value: Any) -> None:
        assert self.node is not None
        if self.durable:
            self.node.storage.log(key, value)
        else:
            self._shadow_storage["/".join(str(p) for p in key)] = value  # repro: noqa(RES001) -- crash-stop stand-in for stable storage: holds exactly what the durable log would, GC'd by discard_instances_below

    def _load(self, key: Tuple[Any, ...], default: Any = None) -> Any:
        assert self.node is not None
        if self.durable:
            return self.node.storage.retrieve(key, default)
        return self._shadow_storage.get(
            "/".join(str(p) for p in key), default)

    # -- ConsensusService overrides -------------------------------------------------

    def propose(self, k: int, value: Any) -> None:
        if self.durable:
            super().propose(k, value)
            return
        # Non-durable mode: same idempotence contract, volatile bookkeeping.
        existing = self._proposals.get(k)
        if existing is None:
            self._proposals[k] = value
        self._activate(k)  # repro: noqa(WAL003) -- non-durable mode models crash-stop: no WAL by design; durable mode takes the super().propose path

    def proposal_of(self, k: int) -> Optional[Any]:
        if self.durable:
            return super().proposal_of(k)
        return self._proposals.get(k)

    def decided_value(self, k: int) -> Optional[Any]:
        if self.durable:
            return super().decided_value(k)
        return self._decisions.get(k)

    def _record_decision(self, k: int, value: Any) -> None:
        if self.durable:
            super()._record_decision(k, value)
            return
        if k not in self._decisions:
            self._decisions[k] = value
            self._notify_observer(k, value)
            self.decision_signal(k).notify(value)

    def discard_instances_below(self, k: int) -> int:
        """GC proposal/decision logs *and* acceptor state below ``k``.

        Safe only below the global watermark (every process's durable
        checkpoint has passed ``k``): no process will ever run or replay
        those instances again, so forgetting their accepted values cannot
        lead to a conflicting re-decision.
        """
        discarded = super().discard_instances_below(k)
        assert self.node is not None
        if self.durable:
            for key in list(self.node.storage.keys(self.ACCEPTOR_KEY)):
                parts = key.split("/")
                if len(parts) == 3 and int(parts[1]) < k:
                    self.node.storage.delete(key)
        for instance in [i for i in self._acceptor if i < k]:
            del self._acceptor[instance]
        for instance in [i for i in self._attempt_counter if i < k]:
            del self._attempt_counter[instance]
        for instance in [i for i in self._instance_members if i < k]:
            del self._instance_members[instance]
        return discarded

    # -- acceptor ------------------------------------------------------------------------

    def _acceptor_state(self, k: int) -> Tuple[int, int, Any]:
        """(promised, accepted_ballot, accepted_value); durable."""
        state = self._acceptor.get(k)
        if state is None:
            state = self._load((self.ACCEPTOR_KEY, k, "acceptor"),
                               (-1, -1, None))
            state = (int(state[0]), int(state[1]), state[2])
            self._acceptor[k] = state
        return state

    def _set_acceptor_state(self, k: int, state: Tuple[int, int, Any]) -> None:
        self._acceptor[k] = state
        self._store((self.ACCEPTOR_KEY, k, "acceptor"), state)

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
        self.endpoint.send(dst, Decide(k, decision))
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
        promised, accepted_ballot, accepted_value = self._acceptor_state(msg.k)
        if msg.ballot >= promised:
            self._set_acceptor_state(
                msg.k, (msg.ballot, accepted_ballot, accepted_value))
            self.endpoint.send(sender, Promise(
                msg.k, msg.ballot, accepted_ballot, accepted_value))
        else:
            self.endpoint.send(sender, Nack(msg.k, promised))

    def _on_accept(self, msg: Accept, sender: int) -> None:
        if self._reply_decided(msg.k, sender):
            return
        if msg.k < self.instance_floor and self._view_changed():
            return  # records gone: no participation (see _on_prepare)
        promised, _, _ = self._acceptor_state(msg.k)
        if msg.ballot >= promised:
            self._set_acceptor_state(msg.k, (msg.ballot, msg.ballot, msg.value))
            self.endpoint.send(sender, Accepted(msg.k, msg.ballot))
        else:
            self.endpoint.send(sender, Nack(msg.k, promised))

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
            self._record_decision(msg.k, attempt.value)
            self.endpoint.multisend(  # repro: noqa(WAL003) -- decision is logged in durable mode; non-durable mode models crash-stop
                Decide(msg.k, attempt.value))

    def _on_nack(self, msg: Nack, sender: int) -> None:
        attempt = self._attempts.get(msg.k)
        if attempt is not None and msg.promised > attempt.ballot:
            attempt.nacked = True

    def _on_decide(self, msg: Decide, sender: int) -> None:
        self._record_decision(msg.k, msg.value)

    def _on_query(self, msg: Query, sender: int) -> None:
        self._reply_decided(msg.k, sender)

    def pull_decision(self, k: int, peer: int) -> None:
        if self.decided_value(k) is None:
            self.endpoint.send(peer, Query(k))

    # -- instance driver ----------------------------------------------------------------------

    def _members(self, k: int) -> Tuple[int, ...]:
        """The member set instance ``k`` runs under (pinned at activation)."""
        members = self._instance_members.get(k)
        if members is None:
            members = tuple(self.endpoint.peers())
        return members

    def _quorum(self, k: int) -> int:
        return len(self._members(k)) // 2 + 1

    def _next_ballot(self, k: int) -> int:
        """A fresh, durable, leader-disjoint ballot for instance ``k``.

        The stride must exceed every member id — including this node's
        own, which an *evicted* proposer draining its backlog may no
        longer find among the members — so ``counter * stride +
        node_id`` stays per-node unique; on the contiguous ids of a
        static cluster it equals ``n``, reproducing the fixed-membership
        ballot values bit for bit.
        """
        assert self.node is not None
        peers = self._members(k)
        n = max(len(peers), (max(peers) + 1) if peers else 1,
                self.node.node_id + 1)
        counter = self._attempt_counter.get(k)
        if counter is None:
            counter = int(self._load((self.ACCEPTOR_KEY, k, "attempts"), 0))
        counter += 1
        self._attempt_counter[k] = counter
        self._store((self.ACCEPTOR_KEY, k, "attempts"), counter)
        return counter * n + self.node.node_id

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
                yield from self._run_attempt(k)
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
        """One phase-1 + phase-2 attempt at the current ballot."""
        assert self.node is not None
        sim = self.node.sim
        ballot = self._next_ballot(k)
        attempt = _Attempt(ballot)
        self._attempts[k] = attempt
        quorum = self._quorum(k)

        self.endpoint.multisend(Prepare(k, ballot))
        deadline = sim.now + self.attempt_timeout
        while (len(attempt.promises) < quorum and not attempt.nacked
               and sim.now < deadline and self.decided_value(k) is None):
            yield min(0.05, self.attempt_timeout / 4)
        if self.decided_value(k) is not None:
            return
        if len(attempt.promises) < quorum:
            return  # retry with a higher ballot on the next loop pass

        # Choose the value: highest accepted ballot wins, else my proposal.
        best_ballot, best_value = -1, None
        for accepted_ballot, accepted_value in attempt.promises.values():
            if accepted_ballot > best_ballot:
                best_ballot, best_value = accepted_ballot, accepted_value
        if best_ballot >= 0 and best_value is not None:
            attempt.value = best_value
        else:
            attempt.value = self.proposal_of(k)
        if attempt.value is None:
            return  # nothing to propose yet (should not happen in practice)

        self.endpoint.multisend(Accept(k, ballot, attempt.value))
        deadline = sim.now + self.attempt_timeout
        while (len(attempt.accepts) < quorum and not attempt.nacked
               and sim.now < deadline and self.decided_value(k) is None):
            yield min(0.05, self.attempt_timeout / 4)
        # Decision (if reached) was recorded by _on_accepted; otherwise the
        # driver loop retries with a fresh ballot.
