"""Post-hoc verification of the Atomic Broadcast properties (Section 2.2).

After a scenario run, :func:`verify_run` checks the four defining
properties against everything the omniscient observer saw:

* **Uniform agreement on decisions** — every consensus instance decided
  the same value at every node that knows a decision (P5).
* **Validity** — the canonical delivered sequence contains only messages
  that were actually A-broadcast.
* **Integrity** — no message appears twice in any node's delivery
  sequence (checked per incarnation *and* on the final Agreed queues).
* **Total Order** — every node's delivered set is a prefix of the
  canonical sequence, and every incarnation's delivery stream is a
  contiguous slice of it (so not only final states but entire histories
  agree).
* **Termination** — every message either A-broadcast by a process that
  never crashed afterwards, or A-delivered anywhere, is delivered by
  every *good* node (a node that is up at the end of the settled run,
  and a member of the final view), and no good node is still joining.
* **Application state** — where the hosted application records the
  ids it applied (``SequenceRecorder.ids()``), every up node holds a
  canonical prefix and every good node exactly the prefix of its
  delivered length: a restore that marked messages delivered without
  applying them, or applied them twice, shows here and nowhere else.

The canonical sequence is derived from the consensus decisions
themselves: per round, the decided batch in deterministic order, minus
messages already placed by earlier rounds — the same computation every
node performs, so any divergence is a real protocol bug.

Raises :class:`~repro.errors.VerificationError` with a precise message on
the first violation; returns a :class:`VerificationReport` otherwise.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from repro.core.agreed import deterministic_order
from repro.core.ids import MessageId
from repro.errors import VerificationError

__all__ = ["verify_overload_safety", "verify_run", "VerificationReport",
           "canonical_sequence"]


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


def _gather_decisions(cluster) -> Dict[int, Any]:
    """Union of consensus decisions across nodes, with agreement check.

    Starts from the collector's omniscient decision archive (which
    survives log garbage collection) and cross-checks it against every
    decision still retrievable at any node.
    """
    if cluster.collector.decision_conflicts:
        k, a, b = cluster.collector.decision_conflicts[0]
        raise VerificationError(
            f"uniform agreement violated: instance {k} decided "
            f"{sorted(m.id for m in a)} and {sorted(m.id for m in b)}")
    decisions: Dict[int, Any] = dict(cluster.collector.decisions)
    highest = max((getattr(ab, 'k', 0) for ab in cluster.abcasts.values()),
                  default=0)
    for node_id, consensus in cluster.consensuses.items():
        for k in range(highest + 2):
            value = consensus.decided_value(k)
            if value is None:
                continue
            if k in decisions and decisions[k] != value:
                raise VerificationError(
                    f"uniform agreement violated: instance {k} decided "
                    f"{sorted(m.id for m in decisions[k])} at one node and "
                    f"{sorted(m.id for m in value)} at node {node_id}")
            decisions.setdefault(k, value)
    return decisions


def canonical_sequence(decisions: Dict[int, Any]) -> List[MessageId]:
    """The single total order implied by the consensus decisions."""
    canonical: List[MessageId] = []
    seen: Set[MessageId] = set()
    for k in sorted(decisions):
        for message in deterministic_order(decisions[k]):
            if message.id not in seen:
                seen.add(message.id)
                canonical.append(message.id)
    return canonical


def _node_delivered_set(abcast) -> Set[MessageId]:
    """All message ids in a node's final Agreed queue (incl. checkpoint)."""
    ids: Set[MessageId] = set()
    tracker = abcast.agreed.tracker
    # The tracker is the authoritative membership structure; enumerate it
    # through its plain form.
    prefixes, exceptions, _ = tracker.to_plain()
    for (sender, incarnation), prefix in \
            [(tuple(stream), value) for stream, value in prefixes]:
        for seq in range(1, prefix + 1):
            ids.add(MessageId(sender, incarnation, seq))
    for (sender, incarnation), seqs in \
            [(tuple(stream), value) for stream, value in exceptions]:
        for seq in seqs:
            ids.add(MessageId(sender, incarnation, seq))
    return ids


def _is_contiguous_slice(stream: Sequence[MessageId],
                         canonical: Sequence[MessageId]) -> bool:
    """True if ``stream`` equals ``canonical[i:i+len(stream)]`` for some i."""
    if not stream:
        return True
    index = {mid: pos for pos, mid in enumerate(canonical)}
    start = index.get(stream[0])
    if start is None:
        return False
    expected = canonical[start:start + len(stream)]
    return list(stream) == list(expected)


def verify_run(cluster, good_nodes: Optional[List[int]] = None,
               check_termination: bool = True) -> VerificationReport:
    """Check every Atomic Broadcast property on a finished run."""
    collector = cluster.collector
    broadcast_ids = collector.broadcast_ids()

    # Uniform views: membership reconfigurations are A-delivered, so every
    # node must walk the same epoch -> member-set timeline (checked on the
    # omniscient install archive; adoption may legitimately *skip* epochs,
    # but never contradict one).
    if getattr(collector, "view_conflicts", None):
        node_id, epoch, a, b = collector.view_conflicts[0]
        raise VerificationError(
            f"uniform views violated: epoch {epoch} installed as "
            f"{list(a)} somewhere and {list(b)} at node {node_id}")

    if cluster.consensuses:
        decisions = _gather_decisions(cluster)
        canonical = canonical_sequence(decisions)
    else:
        # Sequencer baseline: the canonical order is the longest node's
        # delivered sequence (cross-checked below like any other node).
        longest = max(cluster.abcasts.values(),
                      key=lambda ab: len(ab.agreed.sequence()))
        canonical = [m.id for m in longest.agreed.sequence()]
    canonical_set = set(canonical)
    positions = {mid: pos for pos, mid in enumerate(canonical)}

    # Validity: no spurious messages.
    spurious = canonical_set - broadcast_ids
    if spurious:
        raise VerificationError(
            f"validity violated: delivered ids never broadcast: "
            f"{sorted(spurious)[:5]}")

    # Integrity + Total Order on final queues.
    for node_id, abcast in cluster.abcasts.items():
        delivered = _node_delivered_set(abcast)
        extra = delivered - canonical_set
        if extra:
            raise VerificationError(
                f"node {node_id} delivered ids outside the canonical "
                f"order: {sorted(extra)[:5]}")
        expected_prefix = set(canonical[:len(delivered)])
        if delivered != expected_prefix:
            raise VerificationError(
                f"total order violated at node {node_id}: its delivered "
                f"set is not a canonical prefix "
                f"(size {len(delivered)})")
        # The explicit suffix must be in canonical order as well.
        suffix_ids = [m.id for m in abcast.agreed.sequence()]
        suffix_pos = [positions[mid] for mid in suffix_ids]
        if suffix_pos != sorted(suffix_pos):
            raise VerificationError(
                f"total order violated at node {node_id}: Agreed suffix "
                f"out of canonical order")
        if len(set(suffix_ids)) != len(suffix_ids):
            raise VerificationError(
                f"integrity violated at node {node_id}: duplicate in "
                f"Agreed suffix")

    # Integrity + Total Order on every incarnation's delivery stream.
    for node_id in cluster.node_ids():
        for incarnation in collector.incarnations_of(node_id):
            stream = collector.delivered_ids(node_id, incarnation)
            if len(set(stream)) != len(stream):
                raise VerificationError(
                    f"integrity violated: node {node_id} incarnation "
                    f"{incarnation} delivered a duplicate")
            if not _is_contiguous_slice(stream, canonical):
                raise VerificationError(
                    f"total order violated: node {node_id} incarnation "
                    f"{incarnation} delivery stream is not a contiguous "
                    f"slice of the canonical order")

    # Termination.
    if good_nodes is None:
        good_nodes = [node_id for node_id, node in cluster.nodes.items()
                      if node.up]
        views = getattr(cluster, "views", None)
        if views:
            # View-parameterised cluster: only *members* of the final
            # view are obliged to deliver everything — an evicted-but-up
            # node stops receiving the order stream by design.
            final_members = cluster.current_view().members
            good_nodes = [node_id for node_id in good_nodes
                          if node_id in final_members]
    must_deliver: Set[MessageId] = set()
    for mid, sent_at in collector.broadcast_times.items():
        sender_node = cluster.nodes.get(mid.sender)
        if sender_node is None:
            continue
        crashed_after = any(t >= sent_at for t in sender_node.crash_times)
        if not crashed_after:
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
            if getattr(cluster.abcasts[node_id], "_joining", False):
                raise VerificationError(
                    f"termination violated: good node {node_id} is still "
                    f"joining (its state transfer never completed)")
            delivered = _node_delivered_set(cluster.abcasts[node_id])
            missing = (must_deliver | canonical_set) - delivered
            if missing:
                raise VerificationError(
                    f"termination violated: good node {node_id} missing "
                    f"{len(missing)} messages: {sorted(missing)[:5]}")

    # Application state: the tracker says what a node *counts* as
    # delivered; only the application says what was applied.  After a
    # restore plus replay the two can part company (a checkpoint segment
    # marked delivered but never handed up) without disturbing any
    # check above.  Every up node's application must hold a canonical
    # prefix; on the nodes termination is asserted for, exactly the
    # prefix the node delivered.  A node recovered in the run's last
    # instant has rebuilt its queue but not yet announced it (that is
    # its sequencer's first step): its fresh application holds nothing.
    for node_id, rsm in getattr(cluster, "rsms", {}).items():
        applied_ids = getattr(rsm.app, "ids", None)
        if applied_ids is None or not cluster.nodes[node_id].up:
            continue
        applied = applied_ids()
        abcast = cluster.abcasts[node_id]
        delivered = 0 if getattr(abcast, "_pending_restore", False) \
            else len(abcast.agreed)
        exact = check_termination and node_id in good_nodes
        if applied != canonical[:len(applied)] or (
                exact and len(applied) != delivered):
            raise VerificationError(
                f"application state diverged at node {node_id}: it holds "
                f"{len(applied)} applied messages, not the canonical "
                f"prefix of the {delivered} it delivered")

    return VerificationReport(canonical, rounds=max(
        (getattr(ab, "k", 0) for ab in cluster.abcasts.values()), default=0),
        good_nodes=list(good_nodes), undeliverable=undeliverable)


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
    * **Bounded queues** — the stubborn backlog high-water mark never
      exceeded its configured ``max_backlog``, and (when the flow config
      declares a ``queue_bound``) no protocol Unordered/pending buffer
      ever grew beyond it.

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

    stubborn = getattr(cluster, "stubborn", None)
    if stubborn is not None and stubborn.config.max_backlog is not None:
        high = stubborn.metrics.backlog_high_water
        if high > stubborn.config.max_backlog:
            raise VerificationError(
                f"bounded-queue invariant violated: stubborn backlog "
                f"high water {high} > max_backlog "
                f"{stubborn.config.max_backlog}")

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
