"""Simulated network: unreliable, fair, asynchronous channels.

Models the transport assumptions of Section 3.1:

* a bidirectional channel between every pair of processes;
* channels are **not** FIFO (each message draws an independent delay);
* channels may **lose** messages (probabilistically) and **duplicate**
  them;
* transfer delays are finite but arbitrary (bounded random draws);
* channels are **fair**: a message sent infinitely often is received
  infinitely often — guaranteed here because per-message loss is an
  independent Bernoulli draw with probability < 1 (outside explicit
  partitions, which scenarios must eventually heal for fairness to hold).

Messages addressed to a node that is *down* at delivery time are lost,
exactly as in the paper's model (Section 2.1).  Self-addressed messages
(``multisend`` includes the sender) are delivered reliably with zero
delay: a process's loopback does not cross the network.
"""

from __future__ import annotations

import random  # typing only: the Network *receives* a seeded stream
from typing import Callable, Dict, FrozenSet, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.runtime import Node, Runtime
from repro.transport.message import (MAX_DATAGRAM_BYTES, Packet,
                                    WireMessage, unpack)

__all__ = ["NetworkConfig", "Network", "NetworkMetrics",
           "check_own_storage", "present"]


def check_own_storage(nodes: Dict[int, Node], node: Node) -> None:
    """Raise :class:`SimulationError` if ``node``'s stable storage is
    already held by one of ``nodes`` (the paper's processes share no
    disk, Section 2.1)."""
    for other in nodes.values():
        if other.storage is node.storage:
            raise SimulationError(
                f"node {node.node_id} shares its storage with node "
                f"{other.node_id}: build one per node (storage_factory)")


def present(node: Node, message: WireMessage, src: int,
            count: Callable[[Node, bool], None]) -> None:
    """Hand ``message`` to ``node`` and ``count`` what became of it.  An
    arrival at a stalled node is handed over again when the stall ends
    (again and again while the stall grows), and is counted only then:
    each arrival has one fate."""
    consumed = node.deliver(message, src)
    if consumed is None:
        node.sim.schedule(node.stall_until - node.sim.now, present, node,
                          message, src, count)
    else:
        count(node, consumed)


class NetworkConfig:
    """Tunables of the simulated network.

    Parameters
    ----------
    min_delay, max_delay:
        Bounds of the uniform per-message delay draw (virtual time).
    loss_rate:
        Independent probability that a message is dropped in transit.
        Must be < 1 to preserve the fair-loss property.
    duplicate_rate:
        Probability that a delivered message is delivered twice (the
        duplicate draws its own delay).
    delay_fn:
        Optional override: ``delay_fn(rng) -> float`` replaces the uniform
        draw (e.g. heavy-tailed delays).
    """

    def __init__(self, min_delay: float = 0.01, max_delay: float = 0.1,
                 loss_rate: float = 0.0, duplicate_rate: float = 0.0,
                 delay_fn: Optional[Callable[[random.Random], float]] = None):
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(
                f"loss_rate {loss_rate} breaks the fair-loss assumption")
        if not 0.0 <= duplicate_rate <= 1.0:
            raise SimulationError(f"bad duplicate_rate {duplicate_rate}")
        if min_delay < 0 or max_delay < min_delay:
            raise SimulationError(
                f"bad delay bounds [{min_delay}, {max_delay}]")
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.loss_rate = loss_rate
        self.duplicate_rate = duplicate_rate
        self.delay_fn = delay_fn


class NetworkMetrics:
    """Traffic counters, per run."""

    __slots__ = ("sent", "delivered", "lost", "dropped_down", "unhandled",
                 "duplicated", "bytes_sent", "oversize", "by_type")

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.dropped_down = 0
        # Arrivals at an up node with no handler for their type: a type
        # that is sent but that nobody receives.
        self.unhandled = 0
        self.duplicated = 0
        self.bytes_sent = 0
        self.oversize = 0  # frames longer than a datagram can carry
        self.by_type: Dict[str, int] = {}

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy, for metric collection."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "lost": self.lost,
            "dropped_down": self.dropped_down,
            "unhandled": self.unhandled,
            "duplicated": self.duplicated,
            "bytes_sent": self.bytes_sent,
            "oversize": self.oversize,
        }

    def note_arrival(self, node: Node, consumed: bool) -> None:
        """Count one message handed to ``node`` by what became of it:
        ``consumed`` (``node.deliver``'s answer), or found no handler
        for its type on an up node, or arrived while the node was down."""
        if consumed:
            self.delivered += 1
        elif node.up:
            self.unhandled += 1
        else:
            self.dropped_down += 1


class Network:
    """The shared medium connecting every node of a simulation."""

    def __init__(self, sim: Runtime, rng: random.Random,
                 config: Optional[NetworkConfig] = None):
        self.sim = sim
        self.rng = rng
        self.config = config or NetworkConfig()
        self.nodes: Dict[int, Node] = {}
        self.metrics = NetworkMetrics()
        self._partitions: Set[FrozenSet[int]] = set()
        # Gray failure: constant extra delay on every message touching a
        # limping node (either direction).  Added on top of the drawn
        # delay with NO extra RNG draws, so an empty map leaves the
        # event order of every existing seed untouched.
        self._node_delays: Dict[int, float] = {}

    # -- topology -----------------------------------------------------------

    def register(self, node: Node) -> None:
        """Attach a node to the medium.

        Nodes share nothing but the medium: a storage object already
        held by another node is refused, since recovering one node
        would then replay the other's log.
        """
        if node.node_id in self.nodes:
            raise SimulationError(f"node {node.node_id} already registered")
        check_own_storage(self.nodes, node)
        self.nodes[node.node_id] = node

    def node_ids(self) -> Tuple[int, ...]:
        """All registered node ids, sorted."""
        return tuple(sorted(self.nodes))

    def close(self, node_id: int) -> None:
        """A crashed node holds nothing here: what it sent is in flight."""

    # -- partitions -------------------------------------------------------------

    def partition(self, a: int, b: int) -> None:
        """Sever the link between ``a`` and ``b`` (both directions)."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: int, b: int) -> None:
        """Restore the link between ``a`` and ``b``."""
        self._partitions.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        """Restore every severed link."""
        self._partitions.clear()

    def is_partitioned(self, a: int, b: int) -> bool:
        """True if the a—b link is currently severed."""
        return frozenset((a, b)) in self._partitions

    # -- gray failures (limping nodes) -----------------------------------------

    def set_node_delay(self, node_id: int, extra: float) -> None:
        """Make ``node_id`` limp: add ``extra`` to every delay draw on
        messages it sends or receives (slow NIC / overloaded host)."""
        if extra < 0:
            raise SimulationError(f"negative limp delay {extra}")
        self._node_delays[node_id] = extra

    def clear_node_delay(self, node_id: int) -> None:
        """Restore normal link latency for ``node_id``."""
        self._node_delays.pop(node_id, None)

    def clear_node_delays(self) -> None:
        """Restore normal link latency everywhere (chaos settle phase)."""
        self._node_delays.clear()

    # -- sending ------------------------------------------------------------------

    def send(self, src: int, dst: int, message: WireMessage) -> None:
        """Inject one message from ``src`` to ``dst``.

        Loss, duplication and delay are decided at send time with
        independent draws; a message addressed to a down node is silently
        dropped at delivery time.  A :class:`Packet` is one message here:
        one draw of each, and its rider is handed over first.  A frame
        too long for a datagram is counted, and still delivered.
        """
        if dst not in self.nodes:
            raise SimulationError(f"unknown destination {dst}")
        self.metrics.sent += 1
        size = message.frame_size()
        self.metrics.bytes_sent += size
        if size > MAX_DATAGRAM_BYTES:
            self.metrics.oversize += sum(
                part.frame_size() > MAX_DATAGRAM_BYTES
                for part in unpack(message))
        self.metrics.by_type[message.type] = \
            self.metrics.by_type.get(message.type, 0) + 1

        if src == dst:
            # Loopback: reliable, immediate (within the same virtual time).
            self.sim.call_soon(self._deliver, src, dst, message)
            return
        # The link's send clock (see Node.last_sent): whatever happens
        # to the message next, the sender has spoken on this link.
        self.nodes[src].last_sent[dst] = self.sim.now
        if self.is_partitioned(src, dst):
            self.metrics.lost += 1
            return
        if self.config.loss_rate and self.rng.random() < self.config.loss_rate:
            self.metrics.lost += 1
            return
        extra = self._node_delays.get(src, 0.0) + self._node_delays.get(dst, 0.0)
        self.sim.schedule(self._draw_delay() + extra, self._deliver,
                          src, dst, message)
        if (self.config.duplicate_rate
                and self.rng.random() < self.config.duplicate_rate):
            self.metrics.duplicated += 1
            self.sim.schedule(self._draw_delay() + extra, self._deliver,
                              src, dst, message)

    def multisend(self, src: int, message: WireMessage,
                  targets: Optional[Tuple[int, ...]] = None) -> None:
        """The paper's ``multisend`` macro: send to every process,
        including the sender itself (Section 3.1, footnote 2).

        With ``targets`` (a membership view's member set) the send is
        restricted to those destinations; unknown ids are skipped —
        a view may momentarily name a node whose stack is still being
        built.
        """
        if targets is None:
            for dst in self.nodes:
                self.send(src, dst, message)
            return
        for dst in targets:
            if dst in self.nodes:
                self.send(src, dst, message)

    # -- internals --------------------------------------------------------------------

    def _draw_delay(self) -> float:
        if self.config.delay_fn is not None:
            delay = self.config.delay_fn(self.rng)
            if delay < 0:
                raise SimulationError("delay_fn returned a negative delay")
            return delay
        return self.rng.uniform(self.config.min_delay, self.config.max_delay)

    def _deliver(self, src: int, dst: int, message: WireMessage) -> None:
        node = self.nodes[dst]
        if type(message) is Packet:
            present(node, message.rider, src, self._count_rider)
            message = message.carrier
        present(node, message, src, self.metrics.note_arrival)

    def _count_rider(self, node: Node, consumed: bool) -> None:
        """A packet is one message: its rider is counted only when an up
        node has no handler for it."""
        if not consumed and node.up:
            self.metrics.unhandled += 1
