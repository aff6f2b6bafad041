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
atomically (the paper's atomic reception statements).  A blocking
``receive`` can be layered on top with :meth:`Endpoint.subscribe_queue`,
which is what the transport unit tests exercise.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional, Tuple

from repro.errors import ProcessDown
from repro.runtime import NodeComponent, Signal, TransportMedium
from repro.transport.message import Packet, WireMessage

__all__ = ["DEFAULT_QUEUE_CAPACITY", "Endpoint", "ReceiveQueue"]

#: Input buffers are bounded by default: a consumer that stalls (or a
#: sender that floods) must translate into visible drops, not unbounded
#: memory growth on the receive path.
DEFAULT_QUEUE_CAPACITY = 1024


class ReceiveQueue:
    """A blocking input buffer: the paper's ``receive`` primitive.

    Messages deposited while the owning node is up accumulate in volatile
    memory; :meth:`receive` blocks (cooperatively) until one is available.
    The buffer is volatile — the endpoint drops it on crash — and bounded:
    once ``capacity`` messages are pending, further deposits are dropped
    (counted in :attr:`overflows`).  Dropping is sound because the
    transport is fair-lossy anyway: the protocols re-push their payloads
    and pull what they miss.  Pass ``capacity=None`` for an unbounded buffer.
    """

    def __init__(self, endpoint: "Endpoint",
                 capacity: Optional[int] = DEFAULT_QUEUE_CAPACITY):
        self._endpoint = endpoint
        self._capacity = capacity
        self._items: Deque[Tuple[WireMessage, int]] = deque()
        self._signal: Signal = endpoint.node.sim.signal("receive-queue")
        #: Messages dropped because the buffer was full.
        self.overflows = 0

    def deposit(self, message: WireMessage, sender: int) -> None:
        """Called by the endpoint on message arrival."""
        if (self._capacity is not None
                and len(self._items) >= self._capacity):
            self.overflows += 1
            return
        self._items.append((message, sender))
        self._signal.notify()

    def receive(self) -> Generator[Any, Any, Tuple[WireMessage, int]]:
        """Cooperative-blocking receive; yields until a message arrives."""
        while not self._items:
            yield self._signal.wait()
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)


class Endpoint(NodeComponent):
    """The node-side face of the transport."""

    name = "endpoint"

    def __init__(self, network: TransportMedium):
        super().__init__()
        self.network = network
        self._queues: dict = {}
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
        if self.node is None or not self.node.up:
            raise ProcessDown("cannot send from a down node")
        if rider is None and self.rider is not None:
            rider = self.rider(dst, message)
        self.network.send(self.node.node_id, dst,
                          message if rider is None else Packet(message, rider))

    def multisend(self, message: WireMessage) -> None:
        """Unreliable broadcast to all processes, including self."""
        if self.node is None or not self.node.up:
            raise ProcessDown("cannot multisend from a down node")
        if self.view_source is None:
            self.network.multisend(self.node.node_id, message)
        else:
            self.network.multisend(
                self.node.node_id, message,
                self.view_source.multisend_targets(self.node.node_id))

    # -- receiving ---------------------------------------------------------

    def register(self, msg_type: str,
                 handler: Callable[[Any, int], None]) -> None:
        """Route messages of ``msg_type`` to ``handler(message, sender)``.

        Registration is volatile: it disappears at a crash and must be
        redone in the component's ``on_start`` (which re-runs on recovery).
        """
        assert self.node is not None
        self.node.register_handler(msg_type, handler)

    def subscribe_queue(self, msg_type: str,
                        capacity: Optional[int] = DEFAULT_QUEUE_CAPACITY
                        ) -> ReceiveQueue:
        """Blocking-receive alternative to handlers for ``msg_type``."""
        assert self.node is not None
        queue = ReceiveQueue(self, capacity=capacity)
        self._queues[msg_type] = queue
        self.node.register_handler(msg_type, queue.deposit)
        return queue

    # -- lifecycle ------------------------------------------------------------

    def on_crash(self) -> None:
        """Input buffers and the rider hook are volatile: lost on crash."""
        self._queues.clear()
        self.rider = None

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
