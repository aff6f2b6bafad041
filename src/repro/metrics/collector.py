"""Run-level metric collection.

The :class:`MetricsCollector` is the omniscient observer of a simulation:
it records every ``A-broadcast`` submission and every delivery at every
node, with virtual timestamps, and aggregates storage/network counters at
the end of the run.  The harness uses it both for reporting (latency,
throughput, log operations) and for verifying the Atomic Broadcast
properties post-hoc.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.ids import MessageId
from repro.metrics.stats import summarize

__all__ = ["MetricsCollector", "RunMetrics"]


class MetricsCollector:
    """Accumulates per-run observations (lives outside the fault model)."""

    def __init__(self) -> None:
        self.broadcast_times: Dict[MessageId, float] = {}
        self.broadcast_payloads: Dict[MessageId, Any] = {}
        # (node, incarnation, message, time) per delivery upcall, in order.
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

    # -- recording hooks -----------------------------------------------------

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
        """Record one delivery upcall at one node.

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

    # -- derived views ---------------------------------------------------------

    def delivered_ids(self, node_id: int,
                      incarnation: Optional[int] = None) -> List[MessageId]:
        """Delivery order observed at one node.

        A recovering node may re-deliver its history (the replay
        procedure); restrict to one ``incarnation`` to get the sequence a
        single process lifetime observed.
        """
        return [mid for node, inc, mid, _ in self.deliveries
                if node == node_id
                and (incarnation is None or inc == incarnation)]

    def incarnations_of(self, node_id: int) -> List[int]:
        """All incarnation indices that delivered anything at a node."""
        seen: List[int] = []
        for node, inc, _, _ in self.deliveries:
            if node == node_id and inc not in seen:
                seen.append(inc)
        return seen

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

    def total_flow_accepted(self) -> int:
        """Submissions admitted by flow control (0 without a flow config)."""
        if not self.flow:
            return 0
        return sum(s["accepted"] for s in self.flow.values())

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
