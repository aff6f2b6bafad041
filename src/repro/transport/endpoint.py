"""Per-node transport endpoint (Section 3.1 interface).

The :class:`Endpoint` component gives protocol layers on a node the
paper's transport primitives — ``send``, ``multisend`` and handler-based
reception — while hiding the shared :class:`~repro.transport.network.Network`.

Every ``send`` asks the endpoint's :attr:`Endpoint.rider` hook for a
message to carry to the same peer, and hands both to the medium as one
:class:`~repro.transport.message.Packet`: protocol state that is due
to a peer rides the frame already going there.

Reception is handler-based rather than a blocking ``receive`` loop: each
protocol layer registers a handler per message type, and handlers run
atomically (the paper's atomic reception statements).

Inside a turn of a node whose store has a disk, a send is held in the
node's :attr:`~repro.runtime.node.Node.outbox` and reaches the medium
once the turn's write barrier has committed (sized when it is held, so
a message the medium would refuse fails at its send); elsewhere it goes
straight to the medium.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.errors import ProcessDown
from repro.runtime import NodeComponent, TransportMedium
from repro.transport.message import Packet, WireMessage

__all__ = ["Endpoint"]


class Endpoint(NodeComponent):
    """The node-side face of the transport."""

    name = "endpoint"

    def __init__(self, network: TransportMedium):
        super().__init__()
        self.network = network
        # Optional membership oracle (a ViewManager): when set, peers()
        # and multisend() are scoped to the installed view instead of
        # every node the medium has ever seen.
        self.view_source: Any = None
        # ``rider(dst, message) -> Optional[WireMessage]``: asked on every
        # send for a message to ride ``message`` to ``dst``.  Wired by the
        # layer that owns it on every start (Atomic Broadcast: gossip).
        self.rider: Optional[Callable[[int, WireMessage],
                                      Optional[WireMessage]]] = None

    # -- sending ----------------------------------------------------------

    def send(self, dst: int, message: WireMessage,
             rider: Optional[WireMessage] = None) -> None:
        """Unreliable point-to-point send (raises when the node is down).

        ``rider`` goes in the same packet; without one the :attr:`rider`
        hook is asked for it (a scoped endpoint passes its own).
        """
        node = self.node
        if node is None or not node.up:
            raise ProcessDown("cannot send from a down node")
        if rider is None and self.rider is not None:
            rider = self.rider(dst, message)
        frame = message if rider is None else Packet(message, rider)
        if node.outbox is None:
            self.network.send(node.node_id, dst, frame)
        else:
            frame.frame_size()  # a frame the medium would refuse fails here
            node.outbox.append((self.network.send, (node.node_id, dst, frame)))

    def multisend(self, message: WireMessage) -> None:
        """Unreliable broadcast to all processes, including self."""
        node = self.node
        if node is None or not node.up:
            raise ProcessDown("cannot multisend from a down node")
        targets = None if self.view_source is None else \
            self.view_source.multisend_targets(node.node_id)
        if node.outbox is None:
            self.network.multisend(node.node_id, message, targets)
        else:
            message.frame_size()
            node.outbox.append((self.network.multisend,
                                (node.node_id, message, targets)))

    # -- receiving ---------------------------------------------------------

    def register(self, msg_type: str,
                 handler: Callable[[Any, int], None]) -> None:
        """Route messages of ``msg_type`` to ``handler(message, sender)``.

        Registration is volatile: it disappears at a crash and must be
        redone in the component's ``on_start`` (which re-runs on recovery).
        """
        assert self.node is not None
        self.node.register_handler(msg_type, handler)

    # -- lifecycle ------------------------------------------------------------

    def on_crash(self) -> None:
        """The rider hook is volatile: lost on crash.  So is what the
        node held on the medium (on live, its socket and the frames it
        buffered), whoever crashed it."""
        self.rider = None
        self.network.close(self.node_id)

    @property
    def node_id(self) -> int:
        assert self.node is not None
        return self.node.node_id

    def peers(self) -> Tuple[int, ...]:
        """The ids this node treats as the group.

        Without a view source this is every node on the medium (the
        paper's static member set); with one it is the installed view's
        member set — quorum math, failure detection and gossip all flow
        through here, so installing a view re-parameterises the whole
        stack at once.
        """
        if self.view_source is not None:
            return self.view_source.members()
        return self.network.node_ids()
