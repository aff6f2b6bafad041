"""The run's one event sink: archive, trace ring and metrics.

Every protocol layer reports what it did through
:meth:`runtime.trace(category, node, action, ...)
<repro.runtime.api.Runtime.trace>`, and the harness attaches one
:class:`MetricsCollector` to the runtime as its only sink, on the
simulator and the live runtime alike.  The collector lives outside the
fault model: it survives every crash and log truncation, and no
protocol reads it.

:data:`CATEGORIES` is the whole vocabulary; any other category raises.
``broadcast``, ``deliver/apply``, ``decision`` and ``view`` events carry
the positional fields named in :data:`FIELDS`; ``deliver/restore``,
``round/commit``, ``node`` and the ``state-transfer`` join actions carry
keyword details.  The collector archives all of these through its
``note_*`` methods: from them it knows, per node, whether it is up, the
round it stands at, whether it is still joining, and its delivery
streams.  A stream is one monotone sequence of applications: a
(re)start opens one at position 0, a restored or adopted queue opens
one at the position its checkpoint state stands for, numbered as the
application numbers them.  Every event is kept in a bounded trace ring
only when a run asks for it (:meth:`MetricsCollector.keep_events`); a
sim trace is a replayable explanation of an execution.

The harness reports latency and throughput from the archive, and
:func:`~repro.harness.verify.verify_run` judges the run from it alone.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from typing import (Any, Deque, Dict, List, NamedTuple, Optional, Set,
                    Tuple)

from repro.core.ids import MessageId
from repro.metrics.stats import summarize

__all__ = ["CATEGORIES", "FIELDS", "MetricsCollector", "RunMetrics",
           "TRACE_LIMIT", "TraceEvent"]

#: Every event category a layer may emit.
CATEGORIES = (
    "node",            # start / crash / recover
    "broadcast",       # an A-broadcast submission
    "deliver",         # an application applied a message / a restore
    "decision",        # a consensus instance decided
    "view",            # a membership view installed
    "round",           # an AB round committed
    "checkpoint",      # durable checkpoint taken
    "state-transfer",  # state message sent / adopted
    "fd",              # failure-detector suspicion changes
)

#: Names of the positional fields of the archived categories.
FIELDS = {
    "broadcast": ("mid", "payload"),
    "deliver": ("mid", "stream"),
    "decision": ("k", "value"),
    "view": ("epoch", "members", "origin"),
}

#: Bound of the trace ring; the oldest events are dropped beyond it.
TRACE_LIMIT = 100_000


class TraceEvent(NamedTuple):
    """One event kept in the trace ring."""

    time: float
    category: str
    node: int
    action: str
    details: Dict[str, Any]

    def format(self) -> str:
        """One-line human-readable rendering."""
        details = " ".join(f"{key}={value!r}"
                           for key, value in sorted(self.details.items()))
        return (f"[{self.time:10.4f}] n{self.node} "
                f"{self.category}/{self.action} {details}").rstrip()


class MetricsCollector:
    """The run's event sink (lives outside the fault model)."""

    def __init__(self) -> None:
        self.broadcast_times: Dict[MessageId, float] = {}
        self.broadcast_payloads: Dict[MessageId, Any] = {}
        # (node, stream, message, time) per delivery upcall, in order.
        self.deliveries: List[Tuple[int, int, MessageId, float]] = []
        self.first_delivery: Dict[MessageId, float] = {}
        self.delivery_latencies: List[float] = []
        # Deliveries whose broadcast was never recorded (e.g. a message
        # observed only through recovery replay of pre-instrumentation
        # state): counted here, excluded from the latency distribution.
        self.latency_skipped = 0
        # Consensus decision archive: instance -> decided value, plus any
        # disagreements observed (which verification turns into failures).
        self.decisions: Dict[int, Any] = {}
        self.decision_conflicts: List[Tuple[int, Any, Any]] = []
        # Membership archive: every view install at every node, in
        # observation order — (node, epoch, members, time, origin).
        # ``views_by_epoch`` records the first member set seen per epoch;
        # a node installing a *different* member set under the same epoch
        # lands in ``view_conflicts`` (verification turns it into a
        # failure: views must be uniform across the cluster).
        self.view_installs: List[Tuple[int, int, Tuple[int, ...], float,
                                       str]] = []
        self.views_by_epoch: Dict[int, Tuple[int, ...]] = {}
        self.view_conflicts: List[Tuple[int, int, Tuple[int, ...],
                                        Tuple[int, ...]]] = []
        # When each node crashed, in order; whether it is up now, the
        # round it stands at, and the nodes still joining.
        self.crash_times: Dict[int, List[float]] = {}
        self.up: Dict[int, bool] = {}
        self.rounds: Dict[int, int] = {}
        self.joining: Set[int] = set()
        # Per node, its delivery streams in order: [base, delivered] —
        # the position the stream starts at, and how many messages the
        # Atomic Broadcast layer counts delivered on it.
        self.streams: Dict[int, List[List[int]]] = {}
        # The opt-in trace ring (None: keep no events).
        self.events: Optional[Deque[TraceEvent]] = None
        self.dropped = 0

    # -- the sink -------------------------------------------------------------

    def keep_events(self) -> None:
        """Keep every event from now on in a ring of :data:`TRACE_LIMIT`."""
        self.events = deque(maxlen=TRACE_LIMIT)

    def record(self, time: float, category: str, node: int, action: str,
               fields: Tuple[Any, ...], details: Dict[str, Any]) -> None:
        """Take one event (:meth:`Runtime.trace` calls this).

        Archived events go to their ``note_*`` method, looked up on
        the instance at event time; a restore's details gain the number
        of the stream it opens.  A category outside
        :data:`CATEGORIES` raises :class:`ValueError`: a typo at an
        instrumentation site must fail loudly, not drop its events.
        """
        if category == "deliver":
            if action == "apply":
                self.note_delivery(node, fields[0], time, fields[1])
            else:
                details["stream"] = self.note_restore(node, **details)
        elif category == "broadcast":
            self.note_broadcast(fields[0], fields[1], time)
        elif category == "decision":
            self.note_decision(*fields)
        elif category == "round":
            self.note_round(node, details["k"], details["new"])
        elif category == "view":
            self.note_view_install(node, fields[0], fields[1], time,
                                   fields[2])
        elif category == "node":
            self.note_node(node, action, time)
        elif category == "state-transfer":
            if action == "joining":
                self.joining.add(node)
            elif action == "join-complete":
                self.joining.discard(node)
        elif category not in CATEGORIES:
            raise ValueError(f"unknown trace category {category!r}; "
                             f"known: {sorted(CATEGORIES)}")
        events = self.events
        if events is not None:
            if fields:
                details = dict(zip(FIELDS[category], fields))
            if len(events) == events.maxlen:
                self.dropped += 1
            events.append(TraceEvent(time, category, node, action, details))

    # -- archive ----------------------------------------------------------------

    def note_broadcast(self, mid: MessageId, payload: Any,
                       time: float) -> None:
        """Record an ``A-broadcast`` submission.

        First submission wins: a duplicate ``mid`` (a recovered sender
        re-submitting the same message identity) keeps the original
        timestamp and payload, so latency is always measured from the
        *first* time the message entered the system and duplicate
        elimination downstream stays consistent with the metrics.
        """
        if mid not in self.broadcast_times:
            self.broadcast_times[mid] = time
            self.broadcast_payloads[mid] = payload

    def note_delivery(self, node_id: int, mid: MessageId, time: float,
                      incarnation: int = 0) -> None:
        """Record one delivery upcall at one node, on delivery stream
        ``incarnation`` (the benchmark's own tests pass it by that name).

        A delivery whose broadcast was never recorded is kept in the
        delivery log (ordering verification must still see it) but
        contributes **no** latency sample — there is no send time to
        subtract.  Such events are counted in ``latency_skipped`` so a
        run can assert the omission instead of discovering a silently
        thinner latency distribution.
        """
        self.deliveries.append((node_id, incarnation, mid, time))
        if mid not in self.first_delivery:
            self.first_delivery[mid] = time
            sent = self.broadcast_times.get(mid)
            if sent is not None:
                self.delivery_latencies.append(time - sent)
            else:
                self.latency_skipped += 1

    def note_node(self, node_id: int, action: str, time: float) -> None:
        """A node started, crashed or recovered; a (re)start opens a
        stream at position 0 and puts the node back at round 0."""
        self.up[node_id] = action != "crash"
        self.rounds[node_id] = 0
        if action == "crash":
            self.crash_times.setdefault(node_id, []).append(time)
        else:
            self.streams.setdefault(node_id, []).append([0, 0])

    def note_restore(self, node_id: int, base: int, count: int,
                     k: int) -> int:
        """A restored or adopted queue of ``count`` messages at round
        ``k`` was handed up, its checkpoint state standing for ``base``
        of them; returns the number of the stream it opens."""
        self.rounds[node_id] = k
        streams = self.streams[node_id]
        streams.append([base, count])
        return len(streams)

    def note_round(self, node_id: int, k: int, new: int) -> None:
        """Round ``k`` committed, delivering ``new`` messages."""
        self.rounds[node_id] = k + 1
        self.streams[node_id][-1][1] += new

    def note_decision(self, k: int, value: Any) -> None:
        """Archive a consensus decision (survives log garbage collection)."""
        existing = self.decisions.get(k)
        if existing is None:
            self.decisions[k] = value
        elif existing != value:
            self.decision_conflicts.append((k, existing, value))

    def note_view_install(self, node_id: int, epoch: int,
                          members: Tuple[int, ...], time: float,
                          origin: str) -> None:
        """Record one view install at one node (delivery or adoption)."""
        members = tuple(members)
        self.view_installs.append((node_id, epoch, members, time, origin))
        existing = self.views_by_epoch.get(epoch)
        if existing is None:
            self.views_by_epoch[epoch] = members
        elif existing != members:
            self.view_conflicts.append((node_id, epoch, existing, members))

    # -- trace queries ----------------------------------------------------------

    def select(self, category: Optional[str] = None,
               node: Optional[int] = None,
               action: Optional[str] = None) -> List[TraceEvent]:
        """Kept events matching every given filter."""
        return [event for event in self.events or ()
                if (category is None or event.category == category)
                and (node is None or event.node == node)
                and (action is None or event.action == action)]

    def counts(self) -> Dict[str, int]:
        """Kept events per ``category/action`` pair."""
        return dict(Counter(f"{event.category}/{event.action}"
                            for event in self.events or ()))

    def format_text(self, limit: Optional[int] = None) -> str:
        """The kept trace (or its tail) as printable text."""
        events = list(self.events or ())
        if limit is not None:
            events = events[max(0, len(events) - limit):]
        lines = [event.format() for event in events]
        if self.dropped:
            lines.insert(0, f"... {self.dropped} earlier events dropped")
        return "\n".join(lines)

    # -- derived views ---------------------------------------------------------

    def applied(self) -> Dict[Tuple[int, int], List[MessageId]]:
        """Each ``(node, stream)``'s applied messages, in order."""
        applied: Dict[Tuple[int, int], List[MessageId]] = defaultdict(list)
        for node, stream, mid, _ in self.deliveries:
            applied[node, stream].append(mid)
        return applied

    def broadcast_ids(self) -> Set[MessageId]:
        """Every message id ever submitted to ``A-broadcast``."""
        return set(self.broadcast_times)


class RunMetrics:
    """The final report of one scenario run."""

    def __init__(self, duration: float,
                 collector: MetricsCollector,
                 storage_by_node: Dict[int, Dict[str, int]],
                 storage_prefix_ops: Dict[int, Dict[str, int]],
                 storage_prefix_bytes: Dict[int, Dict[str, int]],
                 storage_residency: Dict[int, int],
                 network: Dict[str, int],
                 node_stats: Dict[int, Dict[str, Any]],
                 refutations: int = 0,
                 resends: int = 0,
                 ballots_retired: int = 0,
                 faults_injected: Optional[Dict[str, int]] = None,
                 flow: Optional[Dict[int, Dict[str, Any]]] = None):
        self.duration = duration
        self.collector = collector
        self.storage_by_node = storage_by_node
        self.storage_prefix_ops = storage_prefix_ops
        self.storage_prefix_bytes = storage_prefix_bytes
        self.storage_residency = storage_residency
        self.network = network
        self.node_stats = node_stats
        # Failure-detector suspicions refuted by a later arrival (wrong,
        # or a restart), summed over nodes.
        self.refutations = refutations
        # Paxos phase messages re-sent inside a ballot, and attempts that
        # spent their ballot on a timeout or a Nack, summed over nodes.
        self.resends = resends
        self.ballots_retired = ballots_retired
        # Fault-injection counters from the chaos engine (None outside
        # chaos runs).
        self.faults_injected = faults_injected
        # Per-node admission-control snapshots (None without a flow
        # config — the default).
        self.flow = flow

    # -- headline numbers ---------------------------------------------------------

    @property
    def messages_broadcast(self) -> int:
        return len(self.collector.broadcast_times)

    @property
    def messages_delivered(self) -> int:
        return len(self.collector.first_delivery)

    @property
    def throughput(self) -> float:
        """Messages ordered per unit of virtual time."""
        if self.duration <= 0:
            return 0.0
        return self.messages_delivered / self.duration

    def latency_summary(self) -> Dict[str, float]:
        """Broadcast-to-first-delivery latency distribution."""
        return summarize(self.collector.delivery_latencies)

    def total_log_ops(self) -> int:
        """Durable writes across all nodes."""
        return sum(s["log_ops"] for s in self.storage_by_node.values())

    def total_bytes_logged(self) -> int:
        """Durable bytes written across all nodes."""
        return sum(s["bytes_logged"] for s in self.storage_by_node.values())

    def total_flow_rejected(self) -> int:
        """Submissions rejected by flow control (0 without a flow config)."""
        if not self.flow:
            return 0
        return sum(s["rejected"] for s in self.flow.values())

    def total_quarantined(self) -> int:
        """Corrupt stored records detected and quarantined across nodes."""
        return sum(s.get("quarantined", 0)
                   for s in self.storage_by_node.values())

    def total_faults_injected(self) -> int:
        """Faults the chaos engine injected into this run (0 outside chaos)."""
        if not self.faults_injected:
            return 0
        return sum(self.faults_injected.values())

    def log_ops_by_prefix(self) -> Dict[str, int]:
        """Durable writes per storage-key prefix, summed over nodes."""
        totals: Dict[str, int] = {}
        for per_node in self.storage_prefix_ops.values():
            for prefix, count in per_node.items():
                totals[prefix] = totals.get(prefix, 0) + count
        return totals

    def bytes_by_prefix(self) -> Dict[str, int]:
        """Durable bytes per storage-key prefix, summed over nodes."""
        totals: Dict[str, int] = {}
        for per_node in self.storage_prefix_bytes.values():
            for prefix, count in per_node.items():
                totals[prefix] = totals.get(prefix, 0) + count
        return totals

    def log_ops_per_delivery(self, prefixes: Optional[Set[str]] = None) -> float:
        """Durable writes per ordered message (optionally per prefix set)."""
        delivered = self.messages_delivered
        if delivered == 0:
            return 0.0
        if prefixes is None:
            return self.total_log_ops() / delivered
        by_prefix = self.log_ops_by_prefix()
        return sum(by_prefix.get(p, 0) for p in prefixes) / delivered

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RunMetrics(delivered={self.messages_delivered}/"
                f"{self.messages_broadcast}, "
                f"throughput={self.throughput:.1f}/s, "
                f"log_ops={self.total_log_ops()})")
