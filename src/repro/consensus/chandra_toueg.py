"""Chandra-Toueg ◇S consensus for the crash-**stop** model.

The rotating-coordinator algorithm of Chandra & Toueg [3], implemented
for the baseline Atomic Broadcast (:mod:`repro.baselines.ct_abcast`): in
the crash-no-recovery model with reliable channels, the paper's protocol
"reduces to the Chandra-Toueg Atomic Broadcast protocol" (Section 5.6),
and experiment E8 compares the two in exactly that setting.

The algorithm proceeds in asynchronous rounds; round ``r`` is coordinated
by process ``r mod n``:

1. every process sends its ``(estimate, ts)`` to the coordinator;
2. the coordinator gathers a majority, adopts the estimate with the
   highest timestamp and multicasts it as the round's proposal;
3. each process either adopts the proposal (ack) or, if its failure
   detector suspects the coordinator, moves on (nack) — the coordinator
   is watched for the round, whatever the Ω prefix says, and beats;
4. the coordinator waits for replies from a majority; if a majority
   acked it decides and disseminates the decision with an eager
   reliable broadcast (re-multisend on first receipt), else it moves on
   to the next round, as in [3] (waiting instead for a majority of one
   kind deadlocks once a single wrong suspicion leaves the up processes
   split between ack and nack).

Assumptions (inherited from [3]): crash-stop faults, ``f < n/2``, and
reliable channels — run it on a loss-free network.  Nothing is written to
stable storage: in the crash-stop model, crashed processes never return.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Set, Tuple

from repro.consensus.base import ConsensusService
from repro.fdetect.heartbeat import HeartbeatDetector
from repro.runtime import AnyOf, Signal
from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage

__all__ = ["ChandraTouegConsensus"]


class CTEstimate(WireMessage):
    """Phase 1: participant's current estimate, sent to the coordinator."""

    type = "ct.estimate"
    type_id = 14
    fields = ("k", "round", "estimate", "ts")

    def __init__(self, k: int, round: int, estimate: Any, ts: int):
        self.k = k
        self.round = round
        self.estimate = estimate
        self.ts = ts


class CTPropose(WireMessage):
    """Phase 2: coordinator's proposal for the round."""

    type = "ct.propose"
    type_id = 15
    fields = ("k", "round", "value")

    def __init__(self, k: int, round: int, value: Any):
        self.k = k
        self.round = round
        self.value = value


class CTAck(WireMessage):
    """Phase 3: participant adopted the proposal."""

    type = "ct.ack"
    type_id = 16
    fields = ("k", "round")

    def __init__(self, k: int, round: int):
        self.k = k
        self.round = round


class CTNack(WireMessage):
    """Phase 3: participant suspected the coordinator and moved on."""

    type = "ct.nack"
    type_id = 17
    fields = ("k", "round")

    def __init__(self, k: int, round: int):
        self.k = k
        self.round = round


class CTDecide(WireMessage):
    """Phase 4: the decision, spread by eager reliable broadcast."""

    type = "ct.decide"
    type_id = 18
    fields = ("k", "value")

    def __init__(self, k: int, value: Any):
        self.k = k
        self.value = value


class _InstanceState:
    """Volatile per-instance message tallies."""

    __slots__ = ("estimates", "proposals", "acks", "nacks", "signal")

    def __init__(self, signal: Signal):
        self.estimates: Dict[int, Dict[int, Tuple[Any, int]]] = {}
        self.proposals: Dict[int, Any] = {}
        self.acks: Dict[int, Set[int]] = {}
        self.nacks: Dict[int, Set[int]] = {}
        self.signal = signal


class ChandraTouegConsensus(ConsensusService):
    """Rotating-coordinator ◇S consensus (crash-stop, no logging)."""

    name = "chandra-toueg"

    def __init__(self, endpoint: Endpoint, detector: HeartbeatDetector):
        super().__init__()
        self.endpoint = endpoint
        self.detector = detector
        self._instances: Dict[int, _InstanceState] = {}
        self._drivers: Set[int] = set()

    # -- lifecycle -----------------------------------------------------------

    def on_start(self) -> None:
        self._instances = {}
        self._drivers = set()
        self.endpoint.register(CTEstimate.type, self._on_estimate)
        self.endpoint.register(CTPropose.type, self._on_propose)
        self.endpoint.register(CTAck.type, self._on_ack)
        self.endpoint.register(CTNack.type, self._on_nack)
        self.endpoint.register(CTDecide.type, self._on_decide)

    def on_crash(self) -> None:
        super().on_crash()
        self._instances = {}
        self._drivers = set()

    # -- crash-stop storage: everything volatile ---------------------------------

    def propose(self, k: int, value: Any) -> None:
        existing = self._proposals.get(k)
        if existing is None:
            self._proposals[k] = value
        self._activate(k)

    def proposal_of(self, k: int) -> Optional[Any]:
        return self._proposals.get(k)

    def _record_decision(self, k: int, value: Any) -> None:
        if k not in self._decisions:
            self._lock(k, value)
        # Round bookkeeping for a decided instance is dead weight; drop
        # it, waking any driver still blocked on the round signal so it
        # re-checks decided_value() and exits.
        state = self._instances.pop(k, None)
        if state is not None:
            state.signal.notify()

    # -- message handlers --------------------------------------------------------

    def _state(self, k: int) -> _InstanceState:
        state = self._instances.get(k)
        if state is None:
            assert self.node is not None
            state = _InstanceState(
                self.node.sim.signal(f"ct:{k}@{self.node.node_id}"))
            self._instances[k] = state
        return state

    def _on_estimate(self, msg: CTEstimate, sender: int) -> None:
        if self.decided_value(msg.k) is not None:
            return  # late round traffic must not resurrect a GC'd instance
        state = self._state(msg.k)
        state.estimates.setdefault(msg.round, {})[sender] = \
            (msg.estimate, msg.ts)
        state.signal.notify()

    def _on_propose(self, msg: CTPropose, sender: int) -> None:
        if self.decided_value(msg.k) is not None:
            return
        state = self._state(msg.k)
        state.proposals[msg.round] = msg.value
        state.signal.notify()

    def _on_ack(self, msg: CTAck, sender: int) -> None:
        if self.decided_value(msg.k) is not None:
            return
        state = self._state(msg.k)
        state.acks.setdefault(msg.round, set()).add(sender)
        state.signal.notify()

    def _on_nack(self, msg: CTNack, sender: int) -> None:
        if self.decided_value(msg.k) is not None:
            return
        state = self._state(msg.k)
        state.nacks.setdefault(msg.round, set()).add(sender)
        state.signal.notify()

    def _on_decide(self, msg: CTDecide, sender: int) -> None:
        if self.decided_value(msg.k) is None:
            # Eager reliable broadcast: relay before delivering, so every
            # correct process receives the decision even if the sender
            # crashed mid-multisend.
            self._record_decision(msg.k, msg.value)
            self.endpoint.multisend(CTDecide(msg.k, msg.value))

    # -- driver ----------------------------------------------------------------------

    def _quorum(self) -> int:
        return len(self.endpoint.peers()) // 2 + 1

    def _activate(self, k: int) -> None:
        if k in self._drivers or self.decided_value(k) is not None:
            return
        assert self.node is not None
        self._drivers.add(k)
        self.node.spawn(self._drive(k), f"ct-{k}")

    @contextmanager
    def _watching(self, peer: int) -> Iterator[None]:
        """Watch ``peer`` for a block — also one a crash cuts short."""
        self.detector.watch(peer)
        try:
            yield
        finally:
            self.detector.unwatch(peer)

    def _drive(self, k: int):
        assert self.node is not None
        # Every round starts from an estimate, so the value is bound at
        # activation; with none to bind this process sits the instance
        # out and learns the decision from its reliable broadcast.
        estimate: Any = self._bound_value(k)
        if estimate is None:
            self._drivers.discard(k)
            return
        peers = self.endpoint.peers()
        n = len(peers)
        me = self.node.node_id
        state = self._state(k)
        ts = 0
        round_no = 0
        while self.decided_value(k) is None:
            coordinator = peers[round_no % n]
            # Participants wait on the coordinator in phase 3, so it is
            # watched for the whole round — whatever Ω trusts — and the
            # coordinator, watching itself, beats meanwhile.
            with self._watching(coordinator):
                # Phase 1: send the current estimate to the coordinator.
                self.endpoint.send(coordinator,
                                   CTEstimate(k, round_no, estimate, ts))
                # Phase 2 (coordinator only): gather a majority of
                # estimates and multicast the freshest one.
                if coordinator == me:
                    while (len(state.estimates.get(round_no, {}))
                           < self._quorum()
                           and self.decided_value(k) is None):
                        yield state.signal.wait()
                    if self.decided_value(k) is not None:
                        break
                    freshest = max(state.estimates[round_no].values(),
                                   key=lambda pair: pair[1])
                    # Record locally before multisending: the loopback copy
                    # is asynchronous and the coordinator adopts its own
                    # proposal.
                    state.proposals[round_no] = freshest[0]
                    self.endpoint.multisend(
                        CTPropose(k, round_no, freshest[0]))
                # Phase 3: adopt the proposal or give up on the coordinator.
                while (round_no not in state.proposals
                       and not self.detector.is_suspected(coordinator)
                       and coordinator != me
                       and self.decided_value(k) is None):
                    yield AnyOf([state.signal.wait(),
                                 self.detector.changed.wait()])
                if self.decided_value(k) is not None:
                    break
                if round_no in state.proposals:
                    estimate = state.proposals[round_no]
                    ts = round_no + 1
                    self.endpoint.send(coordinator, CTAck(k, round_no))
                else:
                    self.endpoint.send(coordinator, CTNack(k, round_no))
                # Phase 4 (coordinator only): wait for a majority of
                # replies; decide if a majority acked, else move on.
                if coordinator == me:
                    while (len(state.acks.get(round_no, set()))
                           + len(state.nacks.get(round_no, set()))
                           < self._quorum()
                           and self.decided_value(k) is None):
                        yield state.signal.wait()
                    if self.decided_value(k) is not None:
                        break
                    if (len(state.acks.get(round_no, set()))
                            >= self._quorum()):
                        decision = state.proposals[round_no]
                        self._record_decision(k, decision)
                        self.endpoint.multisend(
                            CTDecide(k, decision))
                        break
            round_no += 1
        self._drivers.discard(k)
