"""Scoped endpoints: several protocol instances on one node.

A node that belongs to several process groups (Section 6.4) runs one
Atomic Broadcast + consensus stack *per group*.  Those stacks must not
see each other's traffic or peers.  A :class:`ScopedEndpoint` wraps the
node's real endpoint and

* restricts ``peers()``/``multisend`` to the group's membership,
* prefixes every message type with the scope name (wrapping outgoing
  messages in a :class:`ScopedMessage` envelope and unwrapping incoming
  ones), so two stacks registering the same handler types never collide;
* asks its own ``rider`` hook on every send and hands the rider, in the
  same envelope, to the node's endpoint beside the message, so each
  stack's gossip rides only that stack's frames.

The wrapped endpoint quacks exactly like :class:`~repro.transport.endpoint.Endpoint`
for the protocol layers (``send``/``multisend``/``register``/``peers``/
``node``/``node_id``/``rider``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.storage import codec
from repro.transport.endpoint import Endpoint
from repro.transport.message import HEADER, WireMessage

__all__ = ["ScopedEndpoint", "ScopedMessage"]


class ScopedMessage(WireMessage):
    """Envelope carrying an inner message under a scoped type tag; its
    frame's body is the scope, then the inner frame (repro.runtime.wire)."""

    fields = ("scope", "inner")

    def __init__(self, scope: str, inner: WireMessage):
        self.scope = scope
        self.inner = inner
        self.type = f"{scope}::{inner.type}"

    def frame_size(self) -> int:
        size = self._size
        if size is None:
            size = self._size = HEADER.size + codec.size(self.scope) \
                + self.inner.frame_size()
        return size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ScopedMessage({self.scope!r}, {self.inner!r})"


class ScopedEndpoint:
    """A group-restricted, type-namespaced view of a node's endpoint."""

    def __init__(self, endpoint: Endpoint, scope: str,
                 members: Sequence[int]):
        if not scope:
            raise SimulationError("scope name must be non-empty")
        self.endpoint = endpoint
        self.scope = scope
        # A scope's membership is fixed at construction; the dynamic
        # view machinery never applies inside a group.
        self.view_source: Any = None
        # The scope's own rider hook (see Endpoint.rider).
        self.rider: Optional[Callable[[int, WireMessage],
                                      Optional[WireMessage]]] = None
        self.members: Tuple[int, ...] = tuple(sorted(set(members)))
        if endpoint.node_id not in self.members:
            raise SimulationError(
                f"node {endpoint.node_id} is not a member of "
                f"scope {scope!r}")

    # -- Endpoint surface -----------------------------------------------------

    @property
    def node(self):
        return self.endpoint.node

    @property
    def node_id(self) -> int:
        return self.endpoint.node_id

    def peers(self) -> Tuple[int, ...]:
        """Only the scope's members are visible peers."""
        return self.members

    def send(self, dst: int, message: WireMessage) -> None:
        if dst not in self.members:
            raise SimulationError(
                f"destination {dst} outside scope {self.scope!r}")
        rider = self.rider(dst, message) if self.rider is not None \
            else None
        self.endpoint.send(dst, ScopedMessage(self.scope, message),
                           None if rider is None
                           else ScopedMessage(self.scope, rider))

    def multisend(self, message: WireMessage) -> None:
        """Multisend within the scope (the group's member set)."""
        envelope = ScopedMessage(self.scope, message)
        for dst in self.members:
            self.endpoint.send(dst, envelope)

    def register(self, msg_type: str,
                 handler: Callable[[Any, int], None]) -> None:
        def unwrap(envelope: ScopedMessage, sender: int) -> None:
            handler(envelope.inner, sender)

        self.endpoint.register(f"{self.scope}::{msg_type}", unwrap)
