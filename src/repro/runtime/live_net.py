"""Localhost UDP transport for the live runtime.

:class:`LiveNetwork` gives every node its own UDP socket bound to an
ephemeral port on 127.0.0.1 and implements the same fair-loss channel
contract as the simulated :class:`~repro.transport.network.Network`
(the :class:`~repro.runtime.api.TransportMedium` protocol), so the
transport :class:`~repro.transport.endpoint.Endpoint` stacks on it
unchanged:

* channels are not FIFO and may drop or duplicate datagrams — UDP
  provides this for real, and configurable *injected* loss/duplication
  (drawn from a seeded stream) keeps the paper's channel model testable
  even on a loopback interface that rarely loses anything;
* messages to a down node are lost: a killed node's socket is closed, so
  datagrams addressed to it vanish exactly like messages to a crashed
  process (Section 2.1);
* self-addressed messages stay reliable and never touch the network
  (the paper's loopback footnote), implemented as a direct callback.

Killing and restarting a node re-binds a *fresh* socket on a new
ephemeral port; the shared port map is updated so peers reach the
recovered process, emulating a process restart without fixed port
assignments.

**Datagram coalescing**: messages are encoded as
length-prefixed binary frames (:func:`repro.runtime.wire.encode_frame`)
and buffered per ``(src, dst)`` pair; the buffer flushes as one datagram
when it would exceed :data:`COALESCE_BYTES` (8 KiB) or on the next
event-loop turn, so every message a single callback emits — a
``multisend``, a protocol round's fan-out, a gossip re-push plus a
decision pull — shares one ``sendto`` system call and one receive
wakeup at no added latency.  Frames buffered by a node that crashes
before its flush are dropped with the rest of its volatile state.

**Datagram size guard**: an encoded frame larger than
:data:`~repro.transport.message.MAX_DATAGRAM_BYTES` (65 507, the
UDP/IPv4 payload limit) is counted (``oversize_drops``) and surfaced to
the caller as a typed :class:`OversizeDatagramError` *before* the send
path touches the socket, instead of ``sendto`` raising a raw
``OSError`` from inside asyncio's datagram plumbing.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError, SimulationError
from repro.runtime import wire
from repro.runtime.live import LiveRuntime
from repro.runtime.node import Node
from repro.transport.message import MAX_DATAGRAM_BYTES, WireMessage, unpack
from repro.transport.network import NetworkMetrics, check_own_storage

__all__ = ["COALESCE_BYTES", "LiveNetwork", "OversizeDatagramError"]

#: Coalescing target: a pair's buffered frames flush before a datagram
#: would grow past it.
COALESCE_BYTES = 8192


class OversizeDatagramError(ReproError):
    """An encoded message exceeds the transport's datagram limit.

    Raised synchronously out of ``send``/``multisend`` so the caller
    fails cleanly (and the drop is counted) instead of ``sendto``
    raising ``OSError: Message too long`` from inside the event loop.
    """

    def __init__(self, message_type: str, size: int, limit: int):
        super().__init__(
            f"encoded {message_type!r} is {size} bytes; the datagram "
            f"limit is {limit}")
        self.message_type = message_type
        self.size = size
        self.limit = limit


class _NodeProtocol(asyncio.DatagramProtocol):
    """Receive path of one node's socket."""

    def __init__(self, network: "LiveNetwork", node_id: int):
        self.network = network
        self.node_id = node_id

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self.network._receive(self.node_id, data)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self.network.metrics.lost += 1


class LiveNetwork:
    """The UDP medium connecting the nodes of a live cluster.

    Parameters
    ----------
    runtime:
        The owning :class:`LiveRuntime` (sockets attach to its loop).
    rng:
        Seeded stream for the injected loss/duplication draws
        (``runtime.rng("network")`` by convention).
    loss_rate, duplicate_rate:
        Injected Bernoulli drop/duplicate probabilities on top of
        whatever the real network does.  ``loss_rate`` must stay < 1 to
        preserve fair loss.
    max_send_buffer:
        Byte bound on a sender socket's kernel write buffer.  When the
        buffer is over the bound the datagram is dropped and counted
        (``send_overflows``) instead of queued without limit: a fair-loss
        drop the protocols repair like any other.  ``None`` (default)
        disables the bound.
    """

    def __init__(self, runtime: LiveRuntime,
                 rng: Optional[random.Random] = None,
                 loss_rate: float = 0.0,
                 duplicate_rate: float = 0.0,
                 max_send_buffer: Optional[int] = None) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(
                f"loss_rate {loss_rate} breaks the fair-loss assumption")
        if not 0.0 <= duplicate_rate <= 1.0:
            raise SimulationError(f"bad duplicate_rate {duplicate_rate}")
        self.runtime = runtime
        self.rng = rng if rng is not None else runtime.rng("network")
        self.loss_rate = loss_rate
        self.duplicate_rate = duplicate_rate
        if max_send_buffer is not None and max_send_buffer < 1:
            raise SimulationError(f"bad max_send_buffer {max_send_buffer}")
        self.max_send_buffer = max_send_buffer
        self.send_overflows = 0
        self.send_buffer_high_water = 0
        # Framing/coalescing counters (wall-clock side, never gated on).
        self.oversize_drops = 0
        self.datagrams_sent = 0
        self.frames_sent = 0
        self.frames_coalesced = 0  # frames that shared a datagram
        self.wire_bytes_sent = 0   # actual encoded bytes through sendto
        self.nodes: Dict[int, Node] = {}
        self.ports: Dict[int, int] = {}
        self.metrics = NetworkMetrics()
        self._transports: Dict[int, asyncio.DatagramTransport] = {}
        # Per-(src, dst) coalescing buffers: encoded frames + byte count,
        # plus the scheduled flush handle (volatile, dies with the src).
        self._out: Dict[Tuple[int, int], List[bytes]] = {}
        self._out_bytes: Dict[Tuple[int, int], int] = {}
        self._flush_handles: Dict[Tuple[int, int], asyncio.Handle] = {}

    # -- topology -----------------------------------------------------------

    def register(self, node: Node) -> None:
        """Attach a node to the medium (its socket opens in :meth:`open`);
        like the simulated network, refuse a storage object another node
        already holds."""
        if node.node_id in self.nodes:
            raise SimulationError(f"node {node.node_id} already registered")
        check_own_storage(self.nodes, node)
        self.nodes[node.node_id] = node

    def node_ids(self) -> Tuple[int, ...]:
        """All registered node ids, sorted."""
        return tuple(sorted(self.nodes))

    # -- socket lifecycle ---------------------------------------------------

    async def open(self, node_id: int) -> int:
        """Bind (or re-bind) the node's UDP socket; returns its port."""
        if node_id not in self.nodes:
            raise SimulationError(f"unknown node {node_id}")
        self.close(node_id)
        transport, _ = await self.runtime.loop.create_datagram_endpoint(
            lambda: _NodeProtocol(self, node_id),
            local_addr=("127.0.0.1", 0))
        port = transport.get_extra_info("sockname")[1]
        self._transports[node_id] = transport
        self.ports[node_id] = port
        return port

    def close(self, node_id: int) -> None:
        """Close the node's socket (datagrams in flight to it are lost).

        Frames the node had buffered for coalescing are volatile sender
        state and vanish with the process, like every other volatile
        variable on a crash.
        """
        transport = self._transports.pop(node_id, None)
        if transport is not None:
            transport.close()
        self.ports.pop(node_id, None)
        for key in [k for k in self._out if k[0] == node_id]:
            self._out.pop(key, None)
            self._out_bytes.pop(key, None)
            handle = self._flush_handles.pop(key, None)
            if handle is not None:
                handle.cancel()

    def close_all(self) -> None:
        """Close every socket (end of run)."""
        for node_id in list(self._transports):
            self.close(node_id)

    # -- sending ------------------------------------------------------------

    def send(self, src: int, dst: int, message: WireMessage) -> None:
        """Inject one message from ``src`` to ``dst``.

        Injected loss and duplication are decided at send time with
        independent seeded draws; real UDP may add its own loss,
        reordering and (in principle) duplication on top.

        A :class:`Packet` is one message here too — one draw of each —
        and its rider's frame goes first into the same buffer, so both
        leave in one datagram.

        Raises :class:`OversizeDatagramError` (after counting the drop)
        when the encoded message cannot fit one datagram — fragmenting
        is a layer this transport deliberately does not have.
        """
        if dst not in self.nodes:
            raise SimulationError(f"unknown destination {dst}")
        self.metrics.sent += 1
        self.metrics.by_type[message.type] = \
            self.metrics.by_type.get(message.type, 0) + 1
        parts = unpack(message)

        if src == dst:
            # Loopback: reliable, in-process, never serialised, so it is
            # charged the length of its frames without encoding them.
            self.metrics.bytes_sent += message.frame_size()
            for part in parts:
                self.runtime.call_soon(self._deliver, src, dst, part)
            return
        # Every other send is charged the frames it encodes to.
        frames = [wire.encode_frame(src, part) for part in parts]
        for part, frame in zip(parts, frames):
            self.metrics.bytes_sent += len(frame)
            self._check_size(part, len(frame))
        # The link's send clock (see Node.last_sent).
        self.nodes[src].last_sent[dst] = self.runtime.now
        if self.loss_rate and self.rng.random() < self.loss_rate:
            self.metrics.lost += 1
            return
        duplicated = bool(self.duplicate_rate
                          and self.rng.random() < self.duplicate_rate)
        if duplicated:
            self.metrics.duplicated += 1
        self._enqueue(src, dst, frames)
        if duplicated:
            self._enqueue(src, dst, frames)

    def multisend(self, src: int, message: WireMessage,
                  targets: Optional[Tuple[int, ...]] = None) -> None:
        """The paper's ``multisend`` macro: send to every process,
        including the sender itself (Section 3.1, footnote 2).

        ``targets`` restricts the send to a view's member set; ids with
        no socket yet are skipped (their stack is still being built)."""
        if targets is None:
            for dst in self.nodes:
                self.send(src, dst, message)
            return
        for dst in targets:
            if dst in self.nodes:
                self.send(src, dst, message)

    # -- internals ----------------------------------------------------------

    def _check_size(self, message: WireMessage, size: int) -> None:
        if size > MAX_DATAGRAM_BYTES:
            self.oversize_drops += 1
            self.metrics.oversize += 1
            self.metrics.lost += 1
            raise OversizeDatagramError(message.type, size,
                                        MAX_DATAGRAM_BYTES)

    def _enqueue(self, src: int, dst: int, frames: List[bytes]) -> None:
        """Buffer one message's frames together; flush by size now or
        on the next loop turn."""
        key = (src, dst)
        size = sum(map(len, frames))
        buffered = self._out_bytes.get(key, 0)
        if buffered and buffered + size > COALESCE_BYTES:
            self._flush(key)
        if size > MAX_DATAGRAM_BYTES:
            # A rider too big to share its carrier's datagram: each
            # frame fits one (checked at send), so each leaves alone.
            for frame in frames:
                self._enqueue(src, dst, [frame])
            return
        buf = self._out.setdefault(key, [])
        buf.extend(frames)
        self._out_bytes[key] = self._out_bytes.get(key, 0) + size
        self.frames_sent += len(frames)
        if key not in self._flush_handles:
            self._flush_handles[key] = self.runtime.call_soon(self._flush,
                                                              key)

    def _flush(self, key: Tuple[int, int]) -> None:
        """Transmit one (src, dst) buffer as a single datagram."""
        handle = self._flush_handles.pop(key, None)
        if handle is not None:
            handle.cancel()
        frames = self._out.pop(key, None)
        self._out_bytes.pop(key, None)
        if not frames:
            return
        if len(frames) > 1:
            self.frames_coalesced += len(frames) - 1
        self._transmit(key[0], key[1], b"".join(frames))

    def _transmit(self, src: int, dst: int, data: bytes) -> None:
        transport = self._transports.get(src)
        port = self.ports.get(dst)
        if transport is None or transport.is_closing() or port is None:
            # Sender has no socket (its process is down) or the
            # destination is unreachable: the datagram is simply lost.
            self.metrics.lost += 1
            return
        if self.max_send_buffer is not None:
            buffered = transport.get_write_buffer_size()
            if buffered > self.send_buffer_high_water:
                self.send_buffer_high_water = buffered
            if buffered >= self.max_send_buffer:
                # Bounded send queue: dropping here is ordinary channel
                # loss to the layers above (fair loss is preserved — the
                # buffer drains between sends).
                self.send_overflows += 1
                self.metrics.lost += 1
                return
        self.datagrams_sent += 1
        self.wire_bytes_sent += len(data)
        transport.sendto(data, ("127.0.0.1", port))

    def _receive(self, dst: int, data: bytes) -> None:
        try:
            arrivals = wire.decode_datagram(data)
        except wire.WireCodecError:
            self.metrics.lost += 1
            return
        for src, message in arrivals:
            self._deliver(src, dst, message)

    def _deliver(self, src: int, dst: int, message: WireMessage) -> None:
        node = self.nodes.get(dst)
        if node is None:
            self.metrics.dropped_down += 1
            return
        self.metrics.note_arrival(node, node.deliver(message, src))
