"""Application layer: replicated state machines over Atomic Broadcast.

Two pieces:

* :class:`Application` — a deterministic state machine.  Its
  ``snapshot``/``restore`` pair is the paper's ``A-checkpoint`` upcall
  (Figure 5): ``snapshot()`` returns a state that logically *contains*
  every message applied so far, and ``restore(None)`` resets to the
  initial state (``A-checkpoint(⊥)``).
* :class:`ReplicatedStateMachine` — the node component that wires an
  application to an Atomic Broadcast instance: subscribes the delivery
  listener, registers the checkpoint provider (when the protocol variant
  supports it), and reports each broadcast and delivery as an event
  (:meth:`~repro.runtime.api.Runtime.trace`).

Because the application state is rebuilt either by full replay (basic
protocol) or from the checkpoint inside the Agreed queue (alternative
protocol), applications themselves never touch stable storage — exactly
the division of labour Section 5.2 describes.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.basic import BasicAtomicBroadcast, DeliveryListener
from repro.core.messages import AppMessage
from repro.runtime import NodeComponent

__all__ = ["Application", "ReplicatedStateMachine"]


class Application:
    """A deterministic state machine replicated via Atomic Broadcast."""

    def apply(self, message: AppMessage) -> Any:
        """Apply one ordered message; must be deterministic."""
        raise NotImplementedError

    def snapshot(self) -> Any:
        """A self-contained, immutable value of the current state.

        Built of tuples, frozensets and scalars only (a map becomes the
        tuple of its items): it is logged by reference inside the
        checkpoint base, shipped by reference in ``state`` messages and
        restored elsewhere, and sizing it on the way refuses a list,
        set or dict at any depth (:func:`repro.storage.codec.size`).
        """
        raise NotImplementedError

    def restore(self, state: Any) -> None:
        """Replace the state with a copy of ``state`` (``None`` = initial
        state).

        ``state`` is a logged value shared with stable storage and with
        other replicas, so it is copied, never adopted and mutated.
        """
        raise NotImplementedError


class ReplicatedStateMachine(NodeComponent, DeliveryListener):
    """Glue between one node's Atomic Broadcast and its application."""

    name = "replicated-state-machine"

    def __init__(self, abcast: BasicAtomicBroadcast,
                 app_factory: Callable[[], Application]):
        NodeComponent.__init__(self)
        self.abcast = abcast
        self.app_factory = app_factory
        self.app: Application = app_factory()
        self.incarnation = 0
        self.stream = 0  # bumped on start *and* on restore: each stream is
        # one monotone delivery sequence (verification checks each is a
        # contiguous slice of the canonical total order)
        self.applied_count = 0

    # -- lifecycle ---------------------------------------------------------

    def on_start(self) -> None:
        self.incarnation += 1
        self.stream += 1
        self.app = self.app_factory()  # volatile state starts fresh
        self.applied_count = 0
        self.abcast.add_listener(self)
        register = getattr(self.abcast, "register_checkpoint_provider", None)
        if register is not None:
            register(self.app.snapshot)

    # -- client interface ------------------------------------------------------

    def submit(self, payload: Any) -> AppMessage:
        """A-broadcast a command (non-blocking)."""
        assert self.node is not None
        message = self.abcast.submit(payload)
        self.node.sim.trace("broadcast", self.node.node_id, "submit",
                            message.id, payload)
        return message

    def broadcast(self, payload: Any):
        """A-broadcast a command with the paper's blocking semantics."""
        assert self.node is not None
        message = self.abcast.submit(payload)
        self.node.sim.trace("broadcast", self.node.node_id, "submit",
                            message.id, payload)
        while message not in self.abcast.agreed:
            yield self.abcast._delivered.wait()
        return message

    # -- delivery upcalls ----------------------------------------------------------

    def on_deliver(self, message: AppMessage) -> None:
        self.app.apply(message)
        self.applied_count += 1
        self.node.sim.trace("deliver", self.node.node_id, "apply",
                            message.id, self.stream)

    def on_restore(self, state: Any) -> None:
        self.stream += 1
        self.app.restore(state)
