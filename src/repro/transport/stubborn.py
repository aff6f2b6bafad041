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

**Coalescing** (``StubbornConfig(coalesce=True)``): instead of one
``stub.data`` send plus one ``stub.ack`` reply *per message*, envelopes
launched towards a peer within one scheduling turn are flushed as a
single :class:`StubbornBatch` event, and acknowledgements owed to that
peer piggyback on the batch (or flush as one batched ack when no data is
going that way).  On the simulated runtime that turns N sends + N acks
into 2 events; on the live runtime the batch is one wire message, which
the transport packs into one datagram.  Retransmissions stay
per-envelope (they are the rare path) and per-envelope ack/window
bookkeeping is unchanged, so the retransmission policy and its metrics
mean the same thing with coalescing on or off.

Delivery stays *at-least-once*: a lost ack causes a duplicate
transmission, which the protocols tolerate by design (the raw channels
already duplicate).  The failure detector meets this layer below its
envelopes: it hears every ``stub.data``/``stub.batch`` that arrives (only
a live sender's timer retransmits one), and its send clock is stamped by
the inner medium, so what sits in a backlog here has not been said.  The
explicit heartbeat still bypasses the layer (``bypass_types``): it is
stale once the next is due, so retransmitting it would buy nothing.
Nothing here reads the detector.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, FrozenSet, List, Optional, Tuple

import random

from repro.runtime import NodeComponent, Runtime, TimerHandle
from repro.transport.message import WireMessage

__all__ = ["StubbornAck", "StubbornBatch", "StubbornChannel",
           "StubbornConfig", "StubbornData", "StubbornLink",
           "StubbornMetrics"]


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


class StubbornBatch(WireMessage):
    """Several envelopes and/or piggybacked acks, sent as one message.

    ``entries`` is a tuple of ``(seq, inner)`` pairs — the payload of
    the :class:`StubbornData` envelopes being batched — and ``acks`` a
    tuple of sequence numbers being acknowledged to the destination.
    Either may be empty (a pure data batch or a pure ack batch).
    """

    type = "stub.batch"
    fields = ("entries", "acks")

    def __init__(self, entries: Tuple[Tuple[int, WireMessage], ...],
                 acks: Tuple[int, ...]):
        self.entries = entries
        self.acks = acks


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
    coalesce:
        Batch same-turn envelopes to a peer into one
        :class:`StubbornBatch` and piggyback acks on it (see module
        docstring).  Off by default: the per-message wire behaviour is
        the historical baseline and some tests pin it down.
    flush_delay:
        Seconds a coalescing flush may wait for more envelopes; ``0``
        (default) flushes on the next scheduling turn, adding no
        latency beyond the turn boundary.
    max_batch:
        Maximum entries per :class:`StubbornBatch`; larger flushes split
        into consecutive batches (each still one event/wire message).
    """

    def __init__(self, window: int = 32,
                 base_interval: float = 0.2,
                 max_interval: float = 2.0,
                 jitter: float = 0.1,
                 bypass_types: Tuple[str, ...] = ("fd.alive",),
                 max_backlog: Optional[int] = 1024,
                 coalesce: bool = False,
                 flush_delay: float = 0.0,
                 max_batch: int = 64):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if max_backlog is not None and max_backlog < 1:
            raise ValueError(f"max_backlog must be >= 1, got {max_backlog}")
        if base_interval <= 0 or max_interval < base_interval:
            raise ValueError(
                f"bad backoff bounds [{base_interval}, {max_interval}]")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if flush_delay < 0:
            raise ValueError(f"negative flush_delay {flush_delay}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.window = window
        self.base_interval = base_interval
        self.max_interval = max_interval
        self.jitter = jitter
        self.bypass_types: FrozenSet[str] = frozenset(bypass_types)
        self.max_backlog = max_backlog
        self.coalesce = coalesce
        self.flush_delay = flush_delay
        self.max_batch = max_batch


class StubbornMetrics:
    """Retransmission counters, per channel (shared across nodes)."""

    __slots__ = ("data_sent", "retransmissions", "acks_sent",
                 "acks_received", "queued",
                 "backlog_overflows", "backlog_high_water",
                 "batches_sent", "batched_entries", "piggybacked_acks")

    def __init__(self) -> None:
        self.data_sent = 0
        self.retransmissions = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.queued = 0
        self.backlog_overflows = 0
        self.backlog_high_water = 0
        # Coalescing counters (zero with coalesce off).
        self.batches_sent = 0
        self.batched_entries = 0
        self.piggybacked_acks = 0

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
            "batches_sent": self.batches_sent,
            "batched_entries": self.batched_entries,
            "piggybacked_acks": self.piggybacked_acks,
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
        # Coalescing state (volatile, like everything else here):
        # envelopes awaiting their first transmission, acks owed per
        # peer, and the per-peer flush timer.
        self._launch_queue: Dict[int, List[StubbornData]] = {}
        self._acks_due: Dict[int, List[int]] = {}
        self._flush_timers: Dict[int, Any] = {}

    # -- lifecycle -----------------------------------------------------------

    def on_start(self) -> None:
        node = self.node
        assert node is not None
        node.register_handler(StubbornData.type, self._on_data)
        node.register_handler(StubbornAck.type, self._on_ack)
        node.register_handler(StubbornBatch.type, self._on_batch)

    def on_crash(self) -> None:
        """Sender state is volatile: stubbornness is per-incarnation."""
        for state in self._peers.values():
            for flight in state.pending.values():
                if flight.timer is not None:
                    flight.timer.cancel()
        self._peers = {}
        for timer in self._flush_timers.values():
            timer.cancel()
        self._flush_timers = {}
        self._launch_queue = {}
        self._acks_due = {}

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
        if self.channel.config.coalesce:
            self._launch_queue.setdefault(dst, []).append(envelope)
            self._schedule_flush(dst)
            return
        self._transmit(dst, flight, first=True)

    def _schedule_flush(self, dst: int) -> None:
        if dst in self._flush_timers:
            return
        assert self.node is not None
        delay = self.channel.config.flush_delay
        sim = self.node.sim
        if delay > 0:
            self._flush_timers[dst] = sim.schedule(delay, self._flush, dst)
        else:
            self._flush_timers[dst] = sim.call_soon(self._flush, dst)

    def _flush(self, dst: int) -> None:
        """Send everything owed to one peer as StubbornBatch message(s)."""
        timer = self._flush_timers.pop(dst, None)
        if timer is not None:
            timer.cancel()
        node = self.node
        if node is None or not node.up:
            return
        config = self.channel.config
        metrics = self.channel.metrics
        state = self._peers.get(dst)
        queued = self._launch_queue.pop(dst, [])
        entries: List[Tuple[int, WireMessage]] = []
        launched: List[_Flight] = []
        for envelope in queued:
            flight = None if state is None else state.pending.get(envelope.seq)
            if flight is None or flight.envelope is not envelope:
                continue  # acknowledged or reset before first transmission
            entries.append((envelope.seq, envelope.inner))
            launched.append(flight)
        acks = self._acks_due.pop(dst, [])
        if not entries and not acks:
            return
        metrics.data_sent += len(entries)
        metrics.acks_sent += len(acks)
        first = 0
        while first < len(entries) or (first == 0 and acks):
            chunk = entries[first:first + config.max_batch]
            batch = StubbornBatch(tuple(chunk), tuple(acks) if first == 0
                                  else ())
            self.channel.inner.send(node.node_id, dst, batch)
            metrics.batches_sent += 1
            metrics.batched_entries += len(chunk)
            if first == 0 and chunk:
                metrics.piggybacked_acks += len(acks)
            first += config.max_batch
            if not chunk:
                break
        for flight in launched:
            delay = self._backoff(flight.attempts)
            flight.attempts += 1
            flight.timer = node.sim.schedule(delay, self._retry, dst, flight)

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

    def _acknowledge(self, sender: int, seq: int) -> None:
        """Ack one received envelope: immediately, or on the next flush."""
        assert self.node is not None
        if self.channel.config.coalesce:
            self._acks_due.setdefault(sender, []).append(seq)
            self._schedule_flush(sender)
            return
        self.channel.metrics.acks_sent += 1
        self.channel.inner.send(self.node.node_id, sender, StubbornAck(seq))

    def _on_data(self, envelope: StubbornData, sender: int) -> None:
        assert self.node is not None
        self._acknowledge(sender, envelope.seq)
        self.node.deliver(envelope.inner, sender)

    def _on_batch(self, batch: StubbornBatch, sender: int) -> None:
        assert self.node is not None
        for seq in batch.acks:
            self._settle_ack(sender, seq)
        for seq, inner in batch.entries:
            self._acknowledge(sender, seq)
            self.node.deliver(inner, sender)

    def _settle_ack(self, sender: int, seq: int) -> None:
        state = self._peers.get(sender)
        if state is None:
            return
        # The peer answers: every flight resumes at its next slot.
        state.answered = True
        state.polling = False
        flight = state.pending.pop(seq, None)
        if flight is None:
            return  # duplicate ack
        self.channel.metrics.acks_received += 1
        if flight.timer is not None:
            flight.timer.cancel()
        while state.backlog and \
                len(state.pending) < self.channel.config.window:
            self._launch(sender, state, state.backlog.popleft())

    def _on_ack(self, ack: StubbornAck, sender: int) -> None:
        self._settle_ack(sender, ack.seq)


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
