"""Post-hoc verification of the Atomic Broadcast properties (Section 2.2).

After a scenario run, :func:`verify_run` checks the four defining
properties.  It judges the run from the cluster's
:class:`~repro.metrics.collector.MetricsCollector` alone — the one sink
of the runtime's events — and reads nothing else, so it can judge a run
it did not host.  From the archive it takes broadcasts, decisions, view
installs and crash times, and per node whether it is up, its round,
whether it is still joining, and its delivery streams: what the
application applied on each, from the position the stream was opened
at, and how many messages the Atomic Broadcast layer counts delivered
on it (a restore's count plus each committed round's new messages).
The checks:

* **Uniform agreement on decisions** — every consensus instance decided
  the same value at every node that locked a decision (P5), and that
  value holds application messages only (:func:`decided_batch`).
* **Validity** — the canonical delivered sequence contains only messages
  that were actually A-broadcast.
* **Integrity** and **Total Order** — every delivery stream of every
  node, crashed incarnations included, is exactly the canonical slice
  that starts at the stream's restore point (a (re)start opens one at
  0), so it applies no message twice and none out of order.
* **Termination** — every message either A-broadcast by a process that
  never crashed afterwards, or A-delivered anywhere, is ordered, and
  every *good* node (up at the end of the settled run and a member of
  the final view) counts the whole canonical sequence delivered and is
  not still joining.  A node that recovered and has reported nothing
  since — no restore, no round — has not handed its queue up yet and is
  not judged for it.
* **Application state** — on every good node, what the application
  holds (its last stream's restore point plus what it applied since)
  is what the Atomic Broadcast layer counts delivered: a restore that
  marked messages delivered without handing them up, or handed one up
  twice, shows here.

The canonical sequence is derived from the consensus decisions
themselves: per round, the decided batch in deterministic order, minus
messages already placed by earlier rounds — the same computation every
node performs, so any divergence is a real protocol bug.  A run without
consensus (the fixed-sequencer baseline) takes the longest final
stream as its order and checks every stream against it.

Raises :class:`~repro.errors.VerificationError` with a precise message on
the first violation; returns a :class:`VerificationReport` otherwise.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.core.agreed import deterministic_order
from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.errors import VerificationError

__all__ = ["verify_overload_safety", "verify_run", "VerificationReport",
           "canonical_sequence", "decided_batch"]


class VerificationReport:
    """Summary of a successful verification."""

    def __init__(self, canonical: List[MessageId], rounds: int,
                 good_nodes: List[int], undeliverable: Set[MessageId]):
        self.canonical = canonical
        self.rounds = rounds
        self.good_nodes = good_nodes
        self.undeliverable = undeliverable

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"VerificationReport({len(self.canonical)} ordered over "
                f"{self.rounds} rounds, good={self.good_nodes}, "
                f"{len(self.undeliverable)} unordered-but-excusable)")


def decided_batch(k: int, value: Any) -> Any:
    """``value``, decided or accepted in instance ``k``, once checked to
    hold application messages only.  Anything else — an id that left
    the one hop an ``Accept`` may carry it, say — raises
    :class:`~repro.errors.VerificationError` naming ``k`` and the item."""
    for item in value:
        if type(item) is not AppMessage:
            raise VerificationError(
                f"instance {k} holds {item!r}, not an application message")
    return value


def canonical_sequence(decisions: Dict[int, Any]) -> List[MessageId]:
    """The single total order implied by the consensus decisions."""
    canonical: List[MessageId] = []
    seen: Set[MessageId] = set()
    for k in sorted(decisions):
        for message in deterministic_order(decided_batch(k, decisions[k])):
            if message.id not in seen:
                seen.add(message.id)
                canonical.append(message.id)
    return canonical


def verify_run(cluster, good_nodes: Optional[List[int]] = None,
               check_termination: bool = True) -> VerificationReport:
    """Check every Atomic Broadcast property on a finished run."""
    collector = cluster.collector
    broadcast_ids = collector.broadcast_ids()

    # Uniform views: membership reconfigurations are A-delivered, so every
    # node must walk the same epoch -> member-set timeline (adoption may
    # legitimately *skip* epochs, but never contradict one).
    if collector.view_conflicts:
        node_id, epoch, a, b = collector.view_conflicts[0]
        raise VerificationError(
            f"uniform views violated: epoch {epoch} installed as "
            f"{list(a)} somewhere and {list(b)} at node {node_id}")
    if collector.decision_conflicts:
        k, a, b = collector.decision_conflicts[0]
        decided_batch(k, a)
        decided_batch(k, b)
        raise VerificationError(
            f"uniform agreement violated: instance {k} decided "
            f"{sorted(m.id for m in a)} and {sorted(m.id for m in b)}")

    streams = collector.streams
    applied = collector.applied()
    if collector.decisions:
        canonical = canonical_sequence(collector.decisions)
    else:
        canonical = max((applied.get((node_id, len(opened)), [])
                         for node_id, opened in streams.items()),
                        key=len, default=[])
    canonical_set = set(canonical)

    # Validity: no spurious messages.
    spurious = canonical_set - broadcast_ids
    if spurious:
        raise VerificationError(
            f"validity violated: delivered ids never broadcast: "
            f"{sorted(spurious)[:5]}")

    # Integrity + Total Order on every delivery stream.
    for (node_id, stream), mids in applied.items():
        opened = streams.get(node_id, ())
        if not 0 < stream <= len(opened):
            raise VerificationError(
                f"integrity violated: node {node_id} applied messages on "
                f"delivery stream {stream}, which it never opened")
        base = opened[stream - 1][0]
        if mids != canonical[base:base + len(mids)]:
            if len(set(mids)) != len(mids):
                raise VerificationError(
                    f"integrity violated: a message applied twice at node "
                    f"{node_id} on delivery stream {stream}")
            raise VerificationError(
                f"total order violated: node {node_id} delivery stream "
                f"{stream} is not the canonical slice from position {base}")

    # Termination.
    if good_nodes is None:
        # Only *members* of the final view are obliged to deliver
        # everything — an evicted-but-up node stops receiving the order
        # stream by design.  Epochs are totally ordered, so the highest
        # one installed anywhere is the final view; with none, every
        # node that started is a member.
        views = collector.views_by_epoch
        members = views[max(views)] if views else collector.up
        good_nodes = [node_id for node_id, up in collector.up.items()
                      if up and node_id in members]
    must_deliver: Set[MessageId] = set()
    for mid, sent_at in collector.broadcast_times.items():
        crashes = collector.crash_times.get(mid.sender, ())
        if not any(t >= sent_at for t in crashes):
            must_deliver.add(mid)
    must_deliver |= set(collector.first_delivery)
    undeliverable = broadcast_ids - canonical_set

    if check_termination:
        missing_globally = must_deliver - canonical_set
        if missing_globally:
            raise VerificationError(
                f"termination violated: {len(missing_globally)} messages "
                f"from never-crashed senders (or already delivered "
                f"somewhere) were never ordered: "
                f"{sorted(missing_globally)[:5]}")
        for node_id in good_nodes:
            if node_id in collector.joining:
                raise VerificationError(
                    f"termination violated: good node {node_id} is still "
                    f"joining (its state transfer never completed)")
            opened = streams[node_id]
            base, delivered = opened[-1]
            recovering = node_id in collector.crash_times \
                and not collector.rounds[node_id]
            if delivered < len(canonical) and not recovering:
                raise VerificationError(
                    f"termination violated: good node {node_id} missing "
                    f"{len(canonical) - delivered} messages: "
                    f"{canonical[delivered:][:5]}")
            # Application state: what the application holds on the last
            # stream against the Atomic Broadcast layer's count.
            held = base + len(applied.get((node_id, len(opened)), ()))
            if held != delivered:
                raise VerificationError(
                    f"application state diverged at node {node_id}: it "
                    f"delivered {delivered} messages and holds {held}"
                    + (f", {delivered - held} never applied"
                       if held < delivered else ""))

    # Rounds of consensus: a consensus-free run reports none.
    rounds = max(collector.rounds.values(), default=0) \
        if collector.decisions else 0
    return VerificationReport(canonical, rounds, list(good_nodes),
                              undeliverable)


def verify_overload_safety(cluster, offered: Optional[int] = None,
                           rejected: Optional[int] = None) -> None:
    """Check the overload-safety invariants on a finished run.

    Complements :func:`verify_run` (which already guarantees that every
    *accepted* broadcast was delivered in the uniform order) with the
    flow-control contract:

    * **Exact accounting** — per node, ``accepted + rejected`` equals the
      admission attempts the controller saw; when the harness knows the
      scenario-level offered/rejected totals, they must match the
      controllers' sums exactly (no rejection silently lost).
    * **Bounded queues** — when the flow config declares a
      ``queue_bound``, no protocol Unordered/pending buffer ever grew
      beyond it.

    Raises :class:`~repro.errors.VerificationError` on the first
    violation; returns ``None`` otherwise.
    """
    flows = getattr(cluster, "flows", None) or {}
    for node_id, controller in flows.items():
        if controller.accepted + controller.rejected != controller.offered:
            raise VerificationError(
                f"overload accounting violated at node {node_id}: "
                f"{controller.accepted} accepted + {controller.rejected} "
                f"rejected != {controller.offered} offered")
        by_reason = sum(controller.rejected_by_reason.values())
        if by_reason != controller.rejected:
            raise VerificationError(
                f"overload accounting violated at node {node_id}: "
                f"{controller.rejected} rejections but "
                f"{by_reason} accounted by reason")
    if offered is not None:
        total_accepted = sum(c.accepted for c in flows.values())
        total_rejected = sum(c.rejected for c in flows.values())
        if total_accepted + total_rejected != offered:
            raise VerificationError(
                f"overload accounting violated: cluster accepted "
                f"{total_accepted} + rejected {total_rejected} != "
                f"{offered} offered")
        if rejected is not None and total_rejected != rejected:
            raise VerificationError(
                f"overload accounting violated: controllers counted "
                f"{total_rejected} rejections, the harness observed "
                f"{rejected}")

    config = getattr(cluster, "config", None)
    flow_config = getattr(config, "flow", None)
    bound = getattr(flow_config, "queue_bound", None)
    if bound is not None:
        for node_id, abcast in cluster.abcasts.items():
            for attr in ("unordered_high_water", "pending_high_water"):
                high = getattr(abcast, attr, 0)
                if high > bound:
                    raise VerificationError(
                        f"bounded-queue invariant violated: node "
                        f"{node_id} {attr} {high} > queue_bound {bound}")
