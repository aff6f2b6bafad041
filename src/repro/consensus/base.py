"""The consensus black-box interface of Section 3.2.

The Atomic Broadcast layer sees consensus through two primitives (plus
two hints: ``pull_decision``, the repair for a decision message lost in
transit, and ``leader_hint``, whose proposal a round will decide):

* ``propose(k, v)`` — propose value ``v`` for instance ``k``.  Proposing
  *is* logging: the proposal is durably recorded as the first operation
  (Section 4.2, "the log is done as the first operation of the
  Consensus"), which guarantees property P4 — a process always proposes
  the same value to instance ``k``, however many times it crashes and
  re-invokes ``propose``.
* ``decided(k)`` — the decision of instance ``k``; once an instance has
  decided, its result is *locked* (property P5) and every re-invocation
  returns the same value.  The lock is volatile: what survives a crash
  is what the algorithm's own durable records prove
  (:meth:`ConsensusService._decision_on_record`), and any other decided
  instance is learnt again from a peer or re-decided — with the same
  value, since a decision is fixed once a quorum holds it.

Both primitives are idempotent, as the paper requires: a recovering
process may re-invoke them for instances that already started or even
finished.

The Atomic Broadcast layer enters a round with ``join(k)`` instead of
proposing: the value is bound when an attempt first needs one (after
Paxos's phase 1, at Chandra–Toueg's activation), by asking the
``value_source`` the layer wired in — and then proposed, so it is logged
before anything carrying it is sent and every later attempt reuses it.
``propose(k, v)`` is the same thing done eagerly: bind ``v``, then join.

A value may cross one hop in a shorter form: ``thin(dst, value)``, also
wired in by the layer above, names by id what ``dst`` is known to hold,
and ``fill(value)`` at ``dst`` rebuilds the value, or answers ``None``
when something named is not held there.  Both are the identity unless
wired; everything else here — proposals, records, decisions — only ever
holds the full value.

:class:`ConsensusService` implements the bookkeeping shared by every
concrete algorithm (proposal log, decision locks, idempotence checks,
waiting, late binding); subclasses implement the agreement itself by
overriding :meth:`_activate`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from repro.errors import ConsensusError, ProposalMismatch
from repro.runtime import NodeComponent, Signal

__all__ = ["ConsensusService"]


def _as_sent(dst: int, value: Any) -> Any:
    return value


def _as_received(value: Any) -> Any:
    return value


class ConsensusService(NodeComponent):
    """Shared base for consensus implementations.

    Stable-storage layout (per node)::

        consensus/<k>/proposal   — the value this process proposes to k
                                   (only once it has bound one, and only
                                   if the algorithm keeps it nowhere else)

    The ``consensus`` key prefix is what experiment E2 counts when
    checking that Atomic Broadcast adds no log operations of its own.
    """

    name = "consensus"

    PROPOSAL_KEY = "consensus"

    # Volatile cache of the durable proposal log, patrolled by the WAL003
    # lint: log first, then cache (P4 survives crashes).
    VOLATILE_FIELDS = ("_proposals",)

    def __init__(self, namespace: str = "") -> None:
        super().__init__()
        # A non-empty namespace isolates this instance's durable state —
        # one consensus stack per process group (Section 6.4).
        self.namespace = namespace
        if namespace:
            self.PROPOSAL_KEY = f"consensus@{namespace}"
        self._decided_signal: Dict[int, Signal] = {}
        self._decisions: Dict[int, Any] = {}   # locked decisions (volatile)
        self._proposals: Dict[int, Any] = {}   # volatile proposal cache
        # Instances below the floor have had their durable records
        # garbage-collected here: this process must no longer participate
        # in them (an acceptor whose memory of an instance is gone would
        # otherwise hand out fresh promises and let a stale recovering
        # proposer re-decide it differently).  Volatile — the protocol
        # above re-establishes it from its durable checkpoint on
        # recovery, *before* any message of the new incarnation is
        # handled.
        self.instance_floor = 0
        # Where a late-bound proposal comes from: the Atomic Broadcast
        # layer wires its own in on every start.  ``None`` (or a source
        # answering ``None``) binds nothing, so no value is sent.
        self.value_source: Optional[Callable[[int], Any]] = None
        # How a value travels to one peer and is rebuilt there (see the
        # module docstring); the Atomic Broadcast layer wires both too.
        self.thin: Callable[[int, Any], Any] = _as_sent
        self.fill: Callable[[Any], Optional[Any]] = _as_received

    # -- paper interface -------------------------------------------------------

    def propose(self, k: int, value: Any) -> None:
        """Propose ``value`` for instance ``k`` (idempotent; logs first):
        an eager bind, then :meth:`join`.

        Raises :class:`~repro.errors.ProposalMismatch` if a *different*
        value was already proposed for ``k`` by this process — the
        protocol above must guarantee P4, and this check enforces it.
        """
        assert self.node is not None
        if k < 0:
            raise ConsensusError(f"negative instance number {k}")
        if value is None:
            raise ConsensusError(
                "None cannot be proposed (it is the 'undecided' sentinel); "
                "propose an empty set instead")
        existing = self.proposal_of(k)
        if existing is not None:
            if existing != value:
                raise ProposalMismatch(
                    f"instance {k}: proposed {existing!r}, now {value!r}")
        else:
            self._log_proposal(k, value)
        self.join(k)

    def join(self, k: int) -> None:
        """Take part in instance ``k`` without a value yet (idempotent).

        The value is bound only if an attempt of this process needs one
        (:meth:`_bound_value`); a process that never proposes in ``k``
        logs no proposal for it and learns the decision like any other.
        """
        if k < 0:
            raise ConsensusError(f"negative instance number {k}")
        self._activate(k)

    def decided_value(self, k: int) -> Optional[Any]:
        """The locked decision of instance ``k``, or ``None`` if undecided."""
        decision = self._decisions.get(k)
        if decision is None:
            decision = self._decision_on_record(k)
            if decision is not None:
                # Proved by the log: lock it like any other decision.
                self._lock(k, decision)
        return decision

    def wait_decided(self, k: int) -> Generator[Any, Any, Any]:
        """Cooperative-blocking wait for the decision of instance ``k``.

        This is the paper's ``wait until decided(k, result)``; the
        generator's return value is the decision.
        """
        while True:
            value = self.decided_value(k)
            if value is not None:
                return value
            yield self.decision_signal(k).wait()

    def pull_decision(self, k: int, peer: int) -> None:
        """Ask ``peer``, known to have moved past instance ``k``, for its
        decision.

        Called by the Atomic Broadcast layer, whose gossip is what knows
        who is ahead, when this process has sat undecided in ``k`` for a
        whole gossip interval.  The default does nothing: it suits an
        algorithm that disseminates its decisions reliably by itself.
        """

    def leader_hint(self) -> Optional[int]:
        """The process whose proposal this algorithm will decide, if it
        decides only one process's proposal; ``None`` if any process's
        proposal may be decided (the default, and Chandra–Toueg's case).

        A hint, not a promise: the Atomic Broadcast layer sends payloads
        where they can be decided and uses it for nothing else, so a
        wrong or changing hint costs dissemination, never safety.
        """
        return None

    # -- replay support (Section 4.2, recovery) -----------------------------------

    def _decision_on_record(self, k: int) -> Optional[Any]:
        """The decision of ``k`` this process's durable records prove, if
        any (the default: none — every decision is volatile)."""
        return None

    def _log_proposal(self, k: int, value: Any) -> None:
        """Make this process's proposal to ``k`` durable, then cache it."""
        assert self.node is not None
        self.node.storage.log((self.PROPOSAL_KEY, k, "proposal"), value)
        self._proposals[k] = value

    def proposal_of(self, k: int) -> Optional[Any]:
        """The value this process logged as its proposal to ``k``."""
        assert self.node is not None
        cached = self._proposals.get(k)
        if cached is not None:
            return cached
        stored = self.node.storage.retrieve(
            (self.PROPOSAL_KEY, k, "proposal"), None)
        if stored is not None:
            self._proposals[k] = stored
        return stored

    def _bound_value(self, k: int) -> Optional[Any]:
        """The value this process proposes to ``k``, bound now if it has
        none yet; ``None`` means bind nothing and send no value.

        An unbound value comes from :attr:`value_source` and is proposed
        — logged — before it is returned, so the caller sends it only
        once it is durable (P4 and log-before-send).  Nothing is bound
        below the participation floor.
        """
        bound = self.proposal_of(k)
        if bound is not None or self.value_source is None \
                or k < self.instance_floor:
            return bound
        value = self.value_source(k)
        if value is not None:
            self.propose(k, value)
        return value

    def logged_instances(self) -> Dict[int, Any]:
        """All instances with a logged proposal, for the replay procedure."""
        assert self.node is not None
        found: Dict[int, Any] = {}
        for key in self.node.storage.keys(self.PROPOSAL_KEY):
            parts = key.split("/")
            if len(parts) == 3 and parts[2] == "proposal":
                found[int(parts[1])] = self.node.storage.retrieve(key)
        return found

    def highest_logged_instance(self) -> int:
        """The highest instance this process holds an algorithm record
        of, beyond its proposals (-1: none): where replay ends."""
        return -1

    def set_instance_floor(self, k: int) -> None:
        """Raise the participation floor (never lowers; idempotent)."""
        if k > self.instance_floor:
            self.instance_floor = k

    def discard_instances_below(self, k: int) -> int:
        """Garbage-collect proposal logs and decisions of instances < ``k``.

        Called by the checkpointing protocol variant (Section 5.1, line c:
        old proposed values that will not be replayed can be discarded).
        Returns the number of records discarded.
        """
        assert self.node is not None
        self.set_instance_floor(k)
        discarded = 0
        for key in list(self.node.storage.keys(self.PROPOSAL_KEY)):
            parts = key.split("/")
            if len(parts) == 3 and int(parts[1]) < k:
                self.node.storage.delete(key)
                discarded += 1
        for instance in [i for i in self._proposals if i < k]:
            del self._proposals[instance]
        for instance in [i for i in self._decisions if i < k]:
            del self._decisions[instance]
        # Keep the signal cache from growing with the instance history —
        # but a task may still be parked on one of these (a driver a
        # state transfer left behind): wake it first, so it re-checks
        # and sees the floor, instead of waiting on an orphan.
        for instance in [i for i in self._decided_signal if i < k]:
            self._decided_signal.pop(instance).notify()
        return discarded

    # -- shared internals -----------------------------------------------------------

    def decision_signal(self, k: int) -> Signal:
        """Signal notified when instance ``k`` decides (volatile).

        It is notified once and then released, so a decided instance
        keeps no signal: a waiter reads :meth:`decided_value` first and
        waits only while it is ``None`` (asking for the signal of a
        decided instance is an error — nothing would ever notify it).
        """
        assert self.node is not None
        if k in self._decisions:
            raise ConsensusError(
                f"instance {k} is decided: read decided_value({k}) "
                f"instead of waiting for its signal")
        signal = self._decided_signal.get(k)
        if signal is None:
            signal = self.node.sim.signal(f"decided:{k}@{self.node.node_id}")
            self._decided_signal[k] = signal
        return signal

    def _record_decision(self, k: int, value: Any) -> None:
        """Lock the decision of instance ``k`` in memory (idempotent)."""
        assert self.node is not None
        existing = self.decided_value(k)
        if existing is not None:
            if existing != value:
                raise ConsensusError(
                    f"instance {k} decided twice with different values: "
                    f"{existing!r} then {value!r}")
            return
        self._lock(k, value)

    def _lock(self, k: int, value: Any) -> None:
        """Lock ``value`` as ``k``'s decision, report it, and wake and
        release ``k``'s signal."""
        assert self.node is not None
        self._decisions[k] = value
        self.node.sim.trace("decision", self.node.node_id, "locked", k,
                            value)
        signal = self._decided_signal.pop(k, None)
        if signal is not None:
            signal.notify(value)

    def on_crash(self) -> None:
        self._decided_signal = {}
        self._decisions = {}
        self._proposals = {}
        self.instance_floor = 0

    # -- algorithm hook ----------------------------------------------------------------

    def _activate(self, k: int) -> None:
        """Start (or re-join) the agreement for instance ``k``.

        Called by :meth:`join`; idempotent.  Subclasses spawn their
        per-instance driver here.
        """
        raise NotImplementedError
