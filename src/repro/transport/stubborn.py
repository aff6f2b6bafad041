"""Stubborn channels: retransmission over any fair-loss medium.

The paper's channel model (Section 3.1) is fair-loss: a message sent
infinitely often is received infinitely often.  Protocols built directly
on such channels rely on their own periodic gossip to mask loss; the
*stubborn channel* abstraction (Aguilera, Chen & Toueg) instead makes a
point-to-point channel where every accepted message is retransmitted
until acknowledged — turning a fair-loss medium into a loss-tolerant one
without touching protocol code.

:class:`StubbornChannel` wraps any
:class:`~repro.runtime.api.TransportMedium` (the simulated
:class:`~repro.transport.network.Network` or the UDP
:class:`~repro.runtime.live_net.LiveNetwork`) and satisfies the same
contract, so the per-node :class:`~repro.transport.endpoint.Endpoint`
stacks on it unchanged.  Per node it installs a :class:`StubbornLink`
component holding the volatile sender state:

* outgoing messages are wrapped in a :class:`StubbornData` envelope with
  a per-peer sequence number and retransmitted with exponential backoff
  (seeded jitter keeps retries from synchronising) until a
  :class:`StubbornAck` arrives;
* at most ``window`` envelopes are in flight per peer; the rest queue in
  a volatile backlog (bounded by ``max_backlog``) and launch as acks
  free window slots — a backlog overflow drops the newest envelope and
  counts it, degrading to ordinary channel loss, which every protocol
  above already tolerates by design;
* a peer that stops acknowledging is judged on this layer's own
  evidence, not a failure detector's: once the oldest envelope pending
  towards it has backed off to ``max_interval`` with no ack from the
  peer since, only that envelope keeps retransmitting, once per
  ``max_interval``, and every other retry waits a poll period at a time;
  any ack from the peer resumes them all at their next slot.  A crashed
  peer is polled, not hammered, and a good one is never retried only
  finitely often (the fairness requirement): the oldest envelope never
  stops, and every ack it earns lets the rest through.  This is the
  precedent of YACA's holdback check — suspect only a peer that left
  your own traffic unacknowledged;
* a crash of the sending node loses all of this state, exactly as the
  crash-recovery model demands of volatile memory — stubbornness is a
  per-incarnation promise.

The layer is opt-in (``ClusterConfig(stubborn=...)``) on both runtimes:
the protocols above repair their own losses, so the default stack runs
them over the bare medium.  Its callers are the chaos engine, which
draws it per seed, and the overload scenario, whose bounded-queue check
reads the backlog bound.  Each envelope is one message on the medium;
coalescing frames into datagrams is the live transport's job
(:mod:`repro.runtime.live_net`).

Delivery stays *at-least-once*: a lost ack causes a duplicate
transmission, which the protocols tolerate by design (the raw channels
already duplicate).  The failure detector meets this layer below its
envelopes: it hears every ``stub.data`` that arrives (only
a live sender's timer retransmits one), and its send clock is stamped by
the inner medium, so what sits in a backlog here has not been said.  The
explicit heartbeat still bypasses the layer (``bypass_types``): it is
stale once the next is due, so retransmitting it would buy nothing.
Nothing here reads the detector.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, FrozenSet, Optional, Tuple

import random

from repro.runtime import NodeComponent, Runtime, TimerHandle
from repro.transport.message import WireMessage

__all__ = ["StubbornAck", "StubbornChannel", "StubbornConfig",
           "StubbornData", "StubbornLink", "StubbornMetrics"]


class StubbornData(WireMessage):
    """Envelope carrying one inner message plus a per-peer sequence.

    ``inner`` is the message itself: on the wire it is a nested frame
    (:mod:`repro.runtime.wire`), encoded once however many envelopes and
    retransmissions carry it.
    """

    type = "stub.data"
    fields = ("seq", "inner")

    def __init__(self, seq: int, inner: WireMessage):
        self.seq = seq
        self.inner = inner


class StubbornAck(WireMessage):
    """Acknowledgement of one :class:`StubbornData` sequence number."""

    type = "stub.ack"
    fields = ("seq",)

    def __init__(self, seq: int):
        self.seq = seq


class StubbornConfig:
    """Tunables of the retransmission policy.

    Parameters
    ----------
    window:
        Maximum unacknowledged envelopes in flight per peer; excess
        messages queue in a volatile backlog.
    max_backlog:
        Bound on that per-peer backlog.  When full, the *newest*
        envelope is dropped and counted (``backlog_overflows``) instead
        of queued — equivalent to a fair-loss channel drop, so safety is
        untouched and memory stays bounded.  ``None`` disables the bound
        (the historical unbounded behaviour).
    base_interval, max_interval:
        Exponential backoff bounds for the per-envelope retransmission
        timer (``base * 2^attempt``, capped at ``max``).
    jitter:
        Relative jitter applied to every backoff draw (from the seeded
        stream the channel was given), so retransmissions from many
        senders do not synchronise into bursts.
    bypass_types:
        Message type tags sent on the raw medium, unwrapped and
        unacknowledged.  Defaults to the failure-detector heartbeat.
    """

    def __init__(self, window: int = 32,
                 base_interval: float = 0.2,
                 max_interval: float = 2.0,
                 jitter: float = 0.1,
                 bypass_types: Tuple[str, ...] = ("fd.alive",),
                 max_backlog: Optional[int] = 1024):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if max_backlog is not None and max_backlog < 1:
            raise ValueError(f"max_backlog must be >= 1, got {max_backlog}")
        if base_interval <= 0 or max_interval < base_interval:
            raise ValueError(
                f"bad backoff bounds [{base_interval}, {max_interval}]")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.window = window
        self.base_interval = base_interval
        self.max_interval = max_interval
        self.jitter = jitter
        self.bypass_types: FrozenSet[str] = frozenset(bypass_types)
        self.max_backlog = max_backlog


class StubbornMetrics:
    """Retransmission counters, per channel (shared across nodes)."""

    __slots__ = ("data_sent", "retransmissions", "acks_sent",
                 "acks_received", "queued",
                 "backlog_overflows", "backlog_high_water")

    def __init__(self) -> None:
        self.data_sent = 0
        self.retransmissions = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.queued = 0
        self.backlog_overflows = 0
        self.backlog_high_water = 0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy, for metric collection."""
        return {
            "data_sent": self.data_sent,
            "retransmissions": self.retransmissions,
            "acks_sent": self.acks_sent,
            "acks_received": self.acks_received,
            "queued": self.queued,
            "backlog_overflows": self.backlog_overflows,
            "backlog_high_water": self.backlog_high_water,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StubbornMetrics(sent={self.data_sent}, "
                f"retx={self.retransmissions}, acks={self.acks_received})")


class _Flight:
    """One in-flight envelope with its retransmission timer."""

    __slots__ = ("envelope", "attempts", "timer")

    def __init__(self, envelope: StubbornData):
        self.envelope = envelope
        self.attempts = 0
        self.timer: Optional[TimerHandle] = None


class _PeerState:
    """Volatile per-destination sender state.

    ``pending`` is in sequence order, so its first flight is the oldest.
    ``answered`` records an ack from the peer since the oldest flight's
    last try; ``polling`` is set when that flight retries at the backoff
    cap without one, and cleared by the next ack.
    """

    __slots__ = ("next_seq", "pending", "backlog", "answered", "polling")

    def __init__(self) -> None:
        self.next_seq = 0
        self.pending: Dict[int, _Flight] = {}
        self.backlog: Deque[StubbornData] = deque()
        self.answered = False
        self.polling = False


class StubbornLink(NodeComponent):
    """Per-node half of the stubborn channel (volatile sender state).

    Installed automatically when a node registers with a
    :class:`StubbornChannel`; protocol code never sees it.
    """

    name = "stubborn-link"

    def __init__(self, channel: "StubbornChannel"):
        super().__init__()
        self.channel = channel
        self._peers: Dict[int, _PeerState] = {}

    # -- lifecycle -----------------------------------------------------------

    def on_start(self) -> None:
        node = self.node
        assert node is not None
        node.register_handler(StubbornData.type, self._on_data)
        node.register_handler(StubbornAck.type, self._on_ack)

    def on_crash(self) -> None:
        """Sender state is volatile: stubbornness is per-incarnation."""
        for state in self._peers.values():
            for flight in state.pending.values():
                if flight.timer is not None:
                    flight.timer.cancel()
        self._peers = {}

    # -- sending -------------------------------------------------------------

    def send(self, dst: int, message: WireMessage) -> None:
        assert self.node is not None
        config = self.channel.config
        if dst == self.node.node_id or message.type in config.bypass_types:
            # Loopback is reliable by construction; bypass types must see
            # the raw channel.
            self.channel.inner.send(self.node.node_id, dst, message)
            return
        state = self._peers.setdefault(dst, _PeerState())
        seq = state.next_seq
        state.next_seq += 1
        envelope = StubbornData(seq, message)
        if len(state.pending) >= config.window:
            metrics = self.channel.metrics
            if config.max_backlog is not None \
                    and len(state.backlog) >= config.max_backlog:
                # Drop-newest: to the layer above this is ordinary
                # fair-loss channel behaviour, masked by gossip/retry.
                metrics.backlog_overflows += 1
                return
            state.backlog.append(envelope)
            metrics.queued += 1
            if len(state.backlog) > metrics.backlog_high_water:
                metrics.backlog_high_water = len(state.backlog)
            return
        self._launch(dst, state, envelope)

    def in_flight(self, dst: int) -> int:
        """Unacknowledged envelopes currently outstanding towards a peer."""
        state = self._peers.get(dst)
        return len(state.pending) if state is not None else 0

    def backlog(self, dst: int) -> int:
        """Messages waiting for window space towards a peer."""
        state = self._peers.get(dst)
        return len(state.backlog) if state is not None else 0

    # -- internals -----------------------------------------------------------

    def _launch(self, dst: int, state: _PeerState,
                envelope: StubbornData) -> None:
        flight = _Flight(envelope)
        state.pending[envelope.seq] = flight
        self._transmit(dst, flight, first=True)

    def _transmit(self, dst: int, flight: _Flight,
                  first: bool = False) -> None:
        assert self.node is not None
        metrics = self.channel.metrics
        if first:
            metrics.data_sent += 1
        else:
            metrics.retransmissions += 1
        self.channel.inner.send(self.node.node_id, dst, flight.envelope)
        delay = self._backoff(flight.attempts)
        flight.attempts += 1
        flight.timer = self.node.sim.schedule(delay, self._retry, dst, flight)

    def _backoff(self, attempts: int) -> float:
        config = self.channel.config
        delay = min(config.max_interval,
                    config.base_interval * (2 ** attempts))
        if config.jitter:
            delay *= 1.0 + config.jitter * self.channel.rng.uniform(-1.0, 1.0)
        return delay

    def _retry(self, dst: int, flight: _Flight) -> None:
        node = self.node
        if node is None or not node.up:
            return
        state = self._peers.get(dst)
        if state is None or state.pending.get(flight.envelope.seq) is not flight:
            return  # acknowledged (or state reset) in the meantime
        config = self.channel.config
        oldest = next(iter(state.pending.values())) is flight
        if state.polling and not oldest:
            # The peer is polled with the oldest envelope alone; this
            # one waits a poll period at a time until an ack comes.
            flight.timer = node.sim.schedule(config.max_interval,
                                             self._retry, dst, flight)
            return
        if oldest:
            if not state.answered and config.base_interval \
                    * (2 ** flight.attempts) >= config.max_interval:
                # The oldest envelope is at the backoff cap and the peer
                # acked nothing since its last try: poll with it alone.
                state.polling = True
            state.answered = False
        self._transmit(dst, flight)

    # -- receiving -----------------------------------------------------------

    def _on_data(self, envelope: StubbornData, sender: int) -> None:
        assert self.node is not None
        self.channel.metrics.acks_sent += 1
        self.channel.inner.send(self.node.node_id, sender,
                                StubbornAck(envelope.seq))
        self.node.deliver(envelope.inner, sender)

    def _on_ack(self, ack: StubbornAck, sender: int) -> None:
        state = self._peers.get(sender)
        if state is None:
            return
        # The peer answers: every flight resumes at its next slot.
        state.answered = True
        state.polling = False
        flight = state.pending.pop(ack.seq, None)
        if flight is None:
            return  # duplicate ack
        self.channel.metrics.acks_received += 1
        if flight.timer is not None:
            flight.timer.cancel()
        while state.backlog and \
                len(state.pending) < self.channel.config.window:
            self._launch(sender, state, state.backlog.popleft())


class StubbornChannel:
    """A :class:`~repro.runtime.api.TransportMedium` adding stubbornness.

    Parameters
    ----------
    runtime:
        The runtime timers are armed on (either implementation).
    inner:
        The fair-loss medium being wrapped.
    config:
        Retransmission policy; defaults to :class:`StubbornConfig`.
    rng:
        Seeded stream for backoff jitter (``runtime.rng("stubborn")``
        when omitted), keeping simulated runs a pure function of the
        seed.
    """

    def __init__(self, runtime: Runtime, inner: Any,
                 config: Optional[StubbornConfig] = None,
                 rng: Optional[random.Random] = None):
        self.runtime = runtime
        self.inner = inner
        self.config = config or StubbornConfig()
        self.rng = rng if rng is not None else runtime.rng("stubborn")
        self.metrics = StubbornMetrics()
        self._links: Dict[int, StubbornLink] = {}

    # -- TransportMedium contract -------------------------------------------

    def register(self, node: Any) -> None:
        """Register with the inner medium and stack the link component."""
        self.inner.register(node)
        link = StubbornLink(self)
        node.add_component(link)
        self._links[node.node_id] = link

    def node_ids(self) -> Tuple[int, ...]:
        return self.inner.node_ids()

    def send(self, src: int, dst: int, message: WireMessage) -> None:
        self._links[src].send(dst, message)

    def multisend(self, src: int, message: WireMessage,
                  targets: Optional[Tuple[int, ...]] = None) -> None:
        """The paper's ``multisend`` macro, each leg made stubborn."""
        known = self.inner.node_ids()
        for dst in (known if targets is None
                    else (t for t in targets if t in known)):
            self.send(src, dst, message)

    # -- introspection -------------------------------------------------------

    def link(self, node_id: int) -> StubbornLink:
        """The per-node link component (for tests and harnesses)."""
        return self._links[node_id]
