"""Consensus from Atomic Broadcast (Section 6.1).

The paper notes the reduction in the reverse direction is easy: "to
propose a value a process atomically broadcasts it; the first value to be
delivered can be chosen as the decided value".  This module implements
that reduction literally, closing the equivalence loop:

    crash-recovery Consensus  →  (Figures 2–4)  →  Atomic Broadcast
    Atomic Broadcast          →  (this module)  →  crash-recovery Consensus

Each consensus instance is a tag: ``propose(k, v)`` A-broadcasts
``("cfab", k, v)`` and the decision of instance ``k`` is the value of the
*first* ``("cfab", k, ·)`` message in the total order.  All three
consensus properties follow directly from the Atomic Broadcast
properties:

* *Uniform agreement* — everyone delivers the same first ``k``-tagged
  message (Total Order + Integrity).
* *Uniform validity* — that message was A-broadcast by some proposer
  (Validity).
* *Termination* — a good proposer's broadcast is eventually delivered
  (Termination), and crash-recovery durability is inherited: the decision
  is re-derived during replay, so a recovered process re-learns it
  without any extra logging.

Experiment E10 checks agreement/validity across seeds and faults.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.core.basic import BasicAtomicBroadcast, DeliveryListener
from repro.core.messages import AppMessage
from repro.runtime import NodeComponent, Signal

__all__ = ["ConsensusFromAtomicBroadcast"]

_TAG = "cfab"


class ConsensusFromAtomicBroadcast(NodeComponent, DeliveryListener):
    """The Section 6.1 reduction, as a node component."""

    name = "consensus-from-abcast"

    def __init__(self, abcast: BasicAtomicBroadcast):
        NodeComponent.__init__(self)
        self.abcast = abcast
        self._decisions: Dict[int, Any] = {}
        self._signals: Dict[int, Signal] = {}
        self._proposed: Dict[int, Any] = {}

    # -- lifecycle ----------------------------------------------------------

    def on_start(self) -> None:
        self._decisions = {}
        self._signals = {}
        self._proposed = {}
        # Decisions are re-derived from the replayed delivery sequence:
        # no logging of our own, mirroring the paper's minimality theme.
        self.abcast.add_listener(self)

    def on_crash(self) -> None:
        self._decisions = {}
        self._signals = {}
        self._proposed = {}

    # -- consensus interface -----------------------------------------------------

    def propose(self, k: int, value: Any) -> None:
        """Propose by A-broadcasting the value under the instance tag."""
        if k in self._proposed or k in self._decisions:
            return  # idempotent
        self._proposed[k] = value
        self.abcast.submit((_TAG, k, value))

    def decided_value(self, k: int) -> Optional[Any]:
        """The first ``k``-tagged value in the total order, if any yet."""
        return self._decisions.get(k)

    def wait_decided(self, k: int) -> Generator[Any, Any, Any]:
        """Cooperative-blocking wait for the decision of instance ``k``."""
        while k not in self._decisions:
            yield self._signal(k).wait()
        return self._decisions[k]

    # -- delivery upcalls ------------------------------------------------------------

    def on_deliver(self, message: AppMessage) -> None:
        payload = message.payload
        if not (isinstance(payload, tuple) and len(payload) == 3
                and payload[0] == _TAG):
            return
        _, k, value = payload
        if k not in self._decisions:  # first delivered proposal wins
            # Decisions are locked forever: consensus validity/agreement
            # (P5 analogue) forbids ever forgetting one, so the map grows
            # with the instance history by construction.
            self._decisions[k] = value
            self._proposed.pop(k, None)
            waiter = self._signals.pop(k, None)
            if waiter is not None:
                waiter.notify(value)

    def on_restore(self, state: Any) -> None:
        # A checkpoint-based restore replaces the delivery prefix; the
        # decisions contained in it must be recovered from the state by
        # the application that owns it.  For the equivalence construction
        # we keep it simple: it is used with the basic protocol, whose
        # replay always re-delivers from round 0.
        self._decisions = {}

    def _signal(self, k: int) -> Signal:
        signal = self._signals.get(k)
        if signal is None:
            assert self.node is not None
            signal = self.node.sim.signal(f"cfab:{k}@{self.node.node_id}")
            self._signals[k] = signal
        return signal
